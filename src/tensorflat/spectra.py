"""Spectral experiments: normalized sums of all flattenings and their
trace-power moments against the predicted diluted limit laws.

The pipeline never forms a single flattening.  It rests on three identities.

* Coset union.  S_n is the disjoint union of the cosets (i n) S_{n-1} for
  i = 1..n, with (n n) the identity.  Summing a tensor over all permutations
  of its n axes therefore takes n(n-1)/2 swapped-axis adds: with the first
  m-1 axes summed, add the m-1 copies that swap axis m with an earlier one
  (subtract them for the signed sum).  The sum of all (2k)! flattenings is
  this sum reshaped, and S3 = S + S* comes from the same single sum.
* Orbit-weighted compression.  An entry of S1 or S3 depends only on the
  multiset of its row indices and on that of its column indices; an entry
  of S2 changes sign with their order.  Over the sorted multi-indices r
  (strictly increasing for S2) with orbit sizes o_r, the vectors
  e_r = o_r^(-1/2) sum_{I in orbit(r)} (+-)e_I are orthonormal and span the
  rows and columns, so A = V B V^T with B[r, s] = sqrt(o_r o_s) A[r, s].
  Hence A A* (or A itself when Hermitian) has the spectrum of B B* (or B)
  padded with side - d zeros, where d = C(N+k-1, k) on Sym^k and C(N, k)
  on Lambda^k, and tr (A A*)^n = tr (B B*)^n.
* Half-power pairing.  tr C^(a+b) = sum_ij (C^a)_ij (C^b)_ji, so the
  moments up to n_max need the powers of C up to ceil(n_max/2) only.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .moments import predicted_moments, target_scale
# flatten is unused here but stays importable: the benchmark's tracer tests
# check that it is patched in this namespace too
from .tensors import FlatMatrix, flatten, sample_tensor  # noqa: F401


def _all_axes_sum(entries, signed):
    """Sum of the tensor over all permutations of its axes, weighted by the
    signature when signed, built one coset (i m) S_{m-1} at a time."""
    add = np.subtract if signed else np.add
    total = entries
    for m in range(1, entries.ndim):
        acc = add(total, total.swapaxes(0, m), dtype=complex)
        for i in range(1, m):
            add(acc, total.swapaxes(i, m), out=acc)
        total = acc
    return total


def build_target(t, which, model):
    """One of the three normalized all-flattening sums.

    S1 sums every flattening, S2 weights by signature, S3 symmetrizes with
    the adjoints (Hermitian): the Mixtures all_sigma_mixture and
    hermitized_mixture, divided by the same target_scale.
    """
    scale = target_scale(which, t.k, model.c, model.c_prime)
    side = t.N**t.k
    total = _all_axes_sum(t.entries, signed=which == "S2").reshape(side, side)
    if which == "S3":
        total += total.conj().T
    total /= scale
    return FlatMatrix(t.N, t.k, total)


@functools.lru_cache(maxsize=None)
def symmetry_basis(N, k, antisymmetric):
    """Row-major indices of the orbit representatives of [N]^k under
    permutations of the coordinates (sorted tuples; strictly increasing
    when antisymmetric) and the square roots of their orbit sizes."""
    if antisymmetric:
        reps = list(itertools.combinations(range(N), k))
        orbits = [math.factorial(k)] * len(reps)
    else:
        reps = list(itertools.combinations_with_replacement(range(N), k))
        orbits = [
            math.factorial(k)
            // math.prod(math.factorial(c) for c in Counter(r).values())
            for r in reps
        ]
    index = np.ravel_multi_index(np.array(reps, dtype=np.intp).reshape(-1, k).T, (N,) * k)
    weight = np.sqrt(np.array(orbits, dtype=float))
    index.flags.writeable = weight.flags.writeable = False
    return index, weight


def compress(A, which):
    """The block B[r, s] = sqrt(o_r o_s) A[r, s] of a target on Sym^k (S1,
    S3) or Lambda^k (S2), in the orbit basis of the module docstring."""
    index, weight = symmetry_basis(A.N, A.k, which == "S2")
    return A.data[np.ix_(index, index)] * np.multiply.outer(weight, weight)


def _spectral_operand(A, hermitian):
    """A, checked to be Hermitian when declared so, or else A A*: the matrix
    whose traces and eigenvalues the moments and the spectrum describe."""
    if not hermitian:
        return A @ A.conj().T
    if np.abs(A - A.conj().T).max(initial=0.0) > 1e-10:
        raise ValueError("matrix declared hermitian is not")
    return A


def trace_power_moments(A, hermitian, n_max):
    """Normalized traces of (A A*)^n, or of A^n when the matrix is declared
    Hermitian, for n = 1..n_max by half-power pairing (no
    eigendecomposition)."""
    if n_max > 12:
        raise ValueError("n_max exceeds guard 12")
    base = _spectral_operand(A, hermitian)
    side = base.shape[0]
    if side == 0:
        raise ValueError("the empty 0x0 matrix has no normalized trace moments")
    powers = [None, base]  # powers[a] = base^a
    while len(powers) <= (n_max + 1) // 2:
        powers.append(powers[-1] @ base)
    out = []
    for n in range(1, n_max + 1):
        a = (n + 1) // 2
        b = n - a
        tr = np.trace(base) if b == 0 else (powers[a] * powers[b].T).sum()
        out.append(complex(tr) / side)
    return out


def compressed_moments(A, which, n_max):
    """trace_power_moments of a build_target output, computed on its
    compressed block and rescaled by d/side."""
    B = compress(A, which)
    if B.shape[0] == 0:
        return [0j] * n_max
    scale = B.shape[0] / A.side
    return [m * scale for m in trace_power_moments(B, which == "S3", n_max)]


def compressed_spectrum(A, which):
    """empirical_spectrum of a build_target output, from the eigenvalues of
    its compressed block padded with side - d zeros."""
    B = compress(A, which)
    eigs = empirical_spectrum(B, which == "S3")
    return np.sort(np.concatenate([eigs, np.zeros(A.side - B.shape[0])]))


def empirical_spectrum(A, hermitian):
    """Sorted real eigenvalues of the array A (Hermitian) or of A A*."""
    if A.shape[0] > 4096:
        raise ValueError("matrix side exceeds eigensolver guard 4096")
    return np.sort(np.linalg.eigvalsh(_spectral_operand(A, hermitian)))


def histogram(values, side):
    """Freedman-Diaconis histogram plus the mass near zero reported apart."""
    values = np.asarray(values)
    q75, q25 = np.percentile(values, [75, 25])
    iqr = q75 - q25
    width = 2 * iqr / len(values) ** (1 / 3) if iqr > 0 else None
    if width and width > 0:
        nbins = max(1, int(math.ceil((values.max() - values.min()) / width)))
        nbins = min(nbins, 512)
    else:
        nbins = 32
    counts, edges = np.histogram(values, bins=nbins)
    delta = 3 * iqr / side if iqr > 0 else 1e-3
    zero_mass = int(np.sum(np.abs(values) <= delta))
    return {
        "edges": edges.tolist(),
        "counts": counts.tolist(),
        "zero_band": delta,
        "zero_mass": zero_mass,
    }


@dataclass
class SpectralReport:
    target: str
    model: dict
    N: int
    k: int
    trials: int
    n_max: int
    seed: int
    rows: list = field(default_factory=list)  # (n, empirical, stderr, predicted)
    hist: dict = None
    counters: dict = None  # side, compressed_side and matmuls per trial
    timings: dict = None  # seconds summed over trials: sample, build, moments, hist

    def to_json(self):
        return json.dumps(
            {
                "target": self.target,
                "model": self.model,
                "N": self.N,
                "k": self.k,
                "trials": self.trials,
                "n_max": self.n_max,
                "seed": self.seed,
                "moments": [
                    {
                        "n": n,
                        "empirical": emp,
                        "stderr": se,
                        "predicted": pred,
                    }
                    for n, emp, se, pred in self.rows
                ],
                "histogram": self.hist,
                "counters": self.counters,
                "timings": self.timings,
            },
            indent=2,
            sort_keys=True,
        )

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "predicted", "empirical", "stderr"])
        for n, emp, se, pred in self.rows:
            writer.writerow([n, pred, emp, se])
        return buf.getvalue()


def run_experiment(model, which, k, N, trials, n_max, seed, with_hist=False):
    """Trial-averaged moments of a spectral target with standard errors and
    the predicted limiting column."""
    hermitian = which == "S3"
    samples = np.zeros((trials, n_max))
    pooled = [] if with_hist else None
    timings = dict.fromkeys(("sample_s", "build_s", "moments_s", "hist_s"), 0.0)
    for trial in range(trials):
        start = time.perf_counter()
        t = sample_tensor(model, N, k, seed, trial)
        sampled = time.perf_counter()
        A = build_target(t, which, model)
        built = time.perf_counter()
        samples[trial] = [m.real for m in compressed_moments(A, which, n_max)]
        done = time.perf_counter()
        if with_hist:
            pooled.append(compressed_spectrum(A, which))
            timings["hist_s"] += time.perf_counter() - done
        timings["sample_s"] += sampled - start
        timings["build_s"] += built - sampled
        timings["moments_s"] += done - built
    means = samples.mean(axis=0)
    stderr = (
        samples.std(axis=0, ddof=1) / math.sqrt(trials) if trials > 1 else np.zeros(n_max)
    )
    predicted = predicted_moments(which, k, n_max)
    d = symmetry_basis(N, k, which == "S2")[0].size
    # trace_power_moments forms B B* unless Hermitian, then the powers up to
    # ceil(n_max/2); empirical_spectrum forms B B* once more
    matmuls = (n_max + 1) // 2 - hermitian + (with_hist and not hermitian) if d else 0
    report = SpectralReport(
        target=which,
        model=model.describe(),
        N=N,
        k=k,
        trials=trials,
        n_max=n_max,
        seed=seed,
        rows=[
            (n + 1, float(means[n]), float(stderr[n]), float(predicted[n]))
            for n in range(n_max)
        ],
        counters={"side": N**k, "compressed_side": d, "matmuls": int(matmuls)},
        timings=timings,
    )
    if with_hist:
        start = time.perf_counter()
        report.hist = histogram(np.concatenate(pooled), N**k)
        timings["hist_s"] += time.perf_counter() - start  # the report holds this dict
    return report


def histogram_svg(hist, width=640, height=360):
    """Minimal standalone SVG bar plot of a histogram dictionary."""
    counts = hist["counts"]
    edges = hist["edges"]
    if not counts:
        return "<svg xmlns='http://www.w3.org/2000/svg'/>"
    peak = max(counts) or 1
    x0, x1 = edges[0], edges[-1]
    span = (x1 - x0) or 1.0
    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}' "
        f"viewBox='0 0 {width} {height}'>",
        f"<rect width='{width}' height='{height}' fill='white'/>",
    ]
    pad = 30
    for i, cnt in enumerate(counts):
        bx = pad + (edges[i] - x0) / span * (width - 2 * pad)
        bw = max(1.0, (edges[i + 1] - edges[i]) / span * (width - 2 * pad))
        bh = cnt / peak * (height - 2 * pad)
        parts.append(
            f"<rect x='{bx:.2f}' y='{height - pad - bh:.2f}' width='{bw:.2f}' "
            f"height='{bh:.2f}' fill='steelblue'/>"
        )
    parts.append(
        f"<line x1='{pad}' y1='{height - pad}' x2='{width - pad}' "
        f"y2='{height - pad}' stroke='black'/>"
    )
    parts.append("</svg>")
    return "".join(parts)
