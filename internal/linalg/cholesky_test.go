package linalg

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestMahalanobisCholMatchesInverse pins the Cholesky scoring path
// against the inverse-covariance path across random SPD covariances:
// the two must agree to tight relative tolerance, in both the squared
// and plain distances, on points near and far from the mean.
func TestMahalanobisCholMatchesInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 5, 16, 32, 80} { // 80 exercises the heap-scratch fallback
		cov := randomSPD(rng, n)
		inv, err := cov.Inverse()
		if err != nil {
			t.Fatalf("n=%d: inverse: %v", n, err)
		}
		fac, err := PackCholesky(cov)
		if err != nil {
			t.Fatalf("n=%d: factor: %v", n, err)
		}
		mean := make(Vector, n)
		for i := range mean {
			mean[i] = 10 * rng.NormFloat64()
		}
		for trial := 0; trial < 25; trial++ {
			x := make(Vector, n)
			scale := math.Pow(10, float64(trial%5)-2) // 1e-2 .. 1e2 offsets
			for i := range x {
				x[i] = mean[i] + scale*rng.NormFloat64()
			}
			want := MahalanobisSq(x, mean, inv)
			got := MahalanobisSqChol(x, mean, fac)
			tol := 1e-8 * math.Max(1, want)
			if math.Abs(got-want) > tol {
				t.Fatalf("n=%d trial %d: squared distance %v via Cholesky, %v via inverse (diff %g)",
					n, trial, got, want, got-want)
			}
			if d := math.Abs(MahalanobisChol(x, mean, fac) - Mahalanobis(x, mean, inv)); d > 1e-8*math.Max(1, math.Sqrt(want)) {
				t.Fatalf("n=%d trial %d: distance diff %g", n, trial, d)
			}
		}
		// At the mean both paths must agree on (near) zero.
		if d := MahalanobisSqChol(mean, mean, fac); d != 0 {
			t.Fatalf("n=%d: distance at the mean = %v, want 0", n, d)
		}
	}
}

// TestPackCholeskyLayout pins the packed layout: row j of the lower
// factor starts at offset j(j+1)/2 and carries j+1 entries.
func TestPackCholeskyLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cov := randomSPD(rng, 6)
	l, err := cov.Cholesky()
	if err != nil {
		t.Fatal(err)
	}
	fac, err := PackCholesky(cov)
	if err != nil {
		t.Fatal(err)
	}
	if fac.N != 6 || len(fac.Data) != 21 {
		t.Fatalf("packed factor N=%d len=%d, want 6/21", fac.N, len(fac.Data))
	}
	for j := 0; j < 6; j++ {
		row := j * (j + 1) / 2
		for i := 0; i <= j; i++ {
			if fac.Data[row+i] != l.At(j, i) {
				t.Fatalf("packed[%d] = %v, want L(%d,%d) = %v", row+i, fac.Data[row+i], j, i, l.At(j, i))
			}
		}
	}
}

// TestPackCholeskySingular verifies the singular covariance surfaces
// ErrSingular instead of a garbage factor.
func TestPackCholeskySingular(t *testing.T) {
	sing := NewMatrix(3, 3) // all-zero: not positive definite
	if _, err := PackCholesky(sing); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

// TestRankOneUpdateMatchesRefactor drives the factor through the
// online-update recurrence of Equation 5.1 — Σ ← α·Σ + x·xᵀ with
// α = (n−1)/n and x = √((n−1)/n²)·(s − mean) — and requires it to match
// a fresh factorisation of the explicitly updated matrix after every
// checkpoint. Round-off must not accumulate over thousands of updates,
// including past the stack scratch size (d = 80).
func TestRankOneUpdateMatchesRefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 3, 32, 64, 80} {
		cov := randomSPD(rng, n)
		fac, err := PackCholesky(cov)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		mean := make(Vector, n)
		x := make(Vector, n)
		count := 50
		for step := 1; step <= 2000; step++ {
			count++
			nPrev, nNow := float64(count-1), float64(count)
			alpha, beta := nPrev/nNow, nPrev/(nNow*nNow)
			for i := range x {
				x[i] = 3*rng.NormFloat64() - mean[i]
				mean[i] += x[i] / nNow
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					cov.Data[i*n+j] = alpha*cov.Data[i*n+j] + beta*x[i]*x[j]
				}
			}
			for i := range x {
				x[i] *= math.Sqrt(beta)
			}
			before := x.Clone()
			fac.RankOneUpdate(alpha, x)
			if !slices.Equal(x, before) {
				t.Fatalf("n=%d step %d: RankOneUpdate modified x", n, step)
			}
			if step%500 != 0 {
				continue
			}
			want, err := PackCholesky(cov)
			if err != nil {
				t.Fatalf("n=%d step %d: refactor: %v", n, step, err)
			}
			var diff, scale float64
			for i := range want.Data {
				diff = math.Max(diff, math.Abs(fac.Data[i]-want.Data[i]))
				scale = math.Max(scale, math.Abs(want.Data[i]))
			}
			if diff > 1e-9*scale {
				t.Fatalf("n=%d step %d: updated factor off by %g (scale %g)", n, step, diff, scale)
			}
		}
	}
}
