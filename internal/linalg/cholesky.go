package linalg

import "math"

// CholFactor is a lower-triangular Cholesky factor L (with Σ = L·Lᵀ)
// stored packed in one flat row-major []float64: row j occupies
// Data[j(j+1)/2 : j(j+1)/2+j+1]. The packed layout halves the memory
// of the square factor and keeps the forward-substitution walk a
// single linear scan, which is what makes the Mahalanobis hot path
// cache friendly.
type CholFactor struct {
	N    int
	Data []float64 // len N(N+1)/2
}

// PackCholesky factors a symmetric positive-definite matrix via
// Matrix.Cholesky and packs the lower triangle. It returns ErrSingular
// when the matrix is not positive definite within tolerance.
func PackCholesky(m *Matrix) (*CholFactor, error) {
	l, err := m.Cholesky()
	if err != nil {
		return nil, err
	}
	n := l.Rows
	f := &CholFactor{N: n, Data: make([]float64, n*(n+1)/2)}
	k := 0
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			f.Data[k] = l.At(j, i)
			k++
		}
	}
	return f, nil
}

// cholStackDim bounds the solve buffer kept on the stack. Edge-set
// vectors are 2×(prefix+suffix) samples — 32 for the paper's reference
// configuration — so the heap fallback only triggers for unusually
// wide models.
const cholStackDim = 64

// MahalanobisSqChol returns the squared Mahalanobis distance of x from
// a distribution with the given mean and covariance factor: it solves
// L·y = (x − mean) by forward substitution and returns Σ y², which
// equals (x−mean)ᵀ·Σ⁻¹·(x−mean) without ever forming the inverse. As
// a sum of squares the result is non-negative by construction, so no
// clamping is needed.
func MahalanobisSqChol(x, mean Vector, f *CholFactor) float64 {
	n := f.N
	mustSameLen(len(x), n)
	mustSameLen(len(mean), n)
	var stack [cholStackDim]float64
	y := stack[:]
	if n > cholStackDim {
		y = make([]float64, n)
	}
	var q float64
	row := 0 // offset of packed row j = j(j+1)/2, maintained incrementally
	for j := 0; j < n; j++ {
		s := x[j] - mean[j]
		for k := 0; k < j; k++ {
			s -= f.Data[row+k] * y[k]
		}
		yj := s / f.Data[row+j]
		y[j] = yj
		q += yj * yj
		row += j + 1
	}
	return q
}

// MahalanobisChol is the Mahalanobis distance via the Cholesky factor.
func MahalanobisChol(x, mean Vector, f *CholFactor) float64 {
	return math.Sqrt(MahalanobisSqChol(x, mean, f))
}

// RankOneUpdate replaces the factored matrix Σ = L·Lᵀ by α·Σ + x·xᵀ in
// place, in O(N²): L is scaled by √α, then one sweep of plane
// rotations folds x into it column by column (the classic Cholesky
// rank-one update). α must be positive. Adding the positive
// semi-definite x·xᵀ to the positive-definite α·Σ keeps it positive
// definite, so the update cannot fail. x is not modified.
func (f *CholFactor) RankOneUpdate(alpha float64, x Vector) {
	n := f.N
	mustSameLen(len(x), n)
	var stack [cholStackDim]float64
	w := stack[:]
	if n > cholStackDim {
		w = make([]float64, n)
	}
	copy(w, x)
	sqrtAlpha := math.Sqrt(alpha)
	for i := range f.Data {
		f.Data[i] *= sqrtAlpha
	}
	for k := 0; k < n; k++ {
		kk := k*(k+1)/2 + k // L[k][k]
		lkk := f.Data[kk]
		r := math.Hypot(lkk, w[k])
		c, s := r/lkk, w[k]/lkk
		f.Data[kk] = r
		ik := kk + k + 1 // L[i][k] for i = k+1; row i+1 starts i+1 entries later
		for i := k + 1; i < n; i++ {
			lik := (f.Data[ik] + s*w[i]) / c
			f.Data[ik] = lik
			w[i] = c*w[i] - s*lik
			ik += i + 1
		}
	}
}
