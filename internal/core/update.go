package core

import (
	"fmt"
	"math"

	"vprofile/internal/linalg"
)

// UpdateResult summarises one online model update.
type UpdateResult struct {
	Applied int // edge sets folded into clusters
	Skipped int // edge sets whose SA is not in the model
	// RetrainRecommended lists clusters whose N reached the model's
	// UpdateBound, the Section 5.3 criterion for training a fresh
	// model instead of continuing to dilute updates.
	RetrainRecommended []ClusterID
}

// Update implements Algorithm 4 (the Section 5.3 online model update):
// new edge sets are grouped through the cluster-SA lookup table, and
// each cluster's edge-set count, mean, covariance (Equation 5.1),
// Cholesky factor and maximum distance are updated per sample.
//
// The factor follows the covariance by an O(dim²) rank-one update
// rather than a refactorisation, and the MaxDist maintenance and any
// later detection both score over it. Samples with unknown SAs are
// skipped and counted — the caller should only feed messages the
// detector accepted.
//
// Save writes the updated covariance, and Load factors it afresh, so
// an updated model that is saved and loaded again scores like the
// in-memory one to round-off, not bit-for-bit.
func (m *Model) Update(samples []Sample) (UpdateResult, error) {
	var res UpdateResult
	for _, s := range samples {
		if len(s.Set) != m.Dim {
			return res, fmt.Errorf("%w: got %d dims, want %d", ErrDimMismatch, len(s.Set), m.Dim)
		}
		id, ok := m.SALUT[s.SA]
		if !ok {
			res.Skipped++
			continue
		}
		m.Clusters[id].push(m, s.Set)
		res.Applied++
	}
	if m.UpdateBound > 0 {
		for _, c := range m.Clusters {
			if c.N >= m.UpdateBound {
				res.RetrainRecommended = append(res.RetrainRecommended, c.ID)
			}
		}
	}
	return res, nil
}

// push folds one edge set into the cluster statistics.
func (c *Cluster) push(m *Model, set linalg.Vector) {
	nPrev := float64(c.N)
	c.N++
	n := float64(c.N)

	// d = x − mean_{n−1}; mean_n = mean_{n−1} + d/n.
	d := set.Sub(c.Mean)
	for i := range c.Mean {
		c.Mean[i] += d[i] / n
	}

	if m.Metric == Mahalanobis {
		if nPrev == 0 {
			// First sample of a cluster loaded empty: there is no
			// spread to fold in yet, so the covariance stays as is.
			return
		}
		// Equation 5.1 in N-normalised form:
		//   Σ_n = (N_{n−1}/N_n)·Σ_{n−1} + ((n−1)/n²)·d·dᵀ
		// which is a scale plus a symmetric rank-1 update, so the
		// factor follows with x = √β·d.
		alpha := nPrev / n
		beta := nPrev / (n * n)
		dim := m.Dim
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				c.Cov.Data[i*dim+j] = alpha*c.Cov.Data[i*dim+j] + beta*d[i]*d[j]
			}
		}
		sb := math.Sqrt(beta)
		for i := range d {
			d[i] *= sb
		}
		c.chol.RankOneUpdate(alpha, d)
	}

	if dist := m.Distance(c, set); dist > c.MaxDist {
		c.MaxDist = dist
	}
}
