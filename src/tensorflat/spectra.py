"""Spectral experiments: normalized sums of all flattenings and their
trace-power moments against the predicted diluted limit laws.

The targets S1, S2 and S3 are the members of moments.Target.  This module
reads only a target's fields (signed, hermitian) and methods (scale,
predicted_moments): the spectrum path never builds a target's Mixture.

The pipeline forms no flattening and no N^k x N^k matrix.  It rests on four
identities.

* Orbit sums.  Summing a tensor x over all (2k)! flattenings puts at
  position I = (i_1..i_2k) the sum of x over every rearrangement of I.  So an
  entry of S1 depends only on the multiset M of its 2k indices: it is
  |Stab(M)| bin[M], where bin[M] sums x over the distinct arrangements of M.
  The signed sum S2 vanishes where I repeats an index and is sgn(I) bin[M]
  elsewhere, with sgn(I) the sign of the permutation sorting I and bin[M]
  the sign-weighted sum of x over the (2k)! arrangements of the set M.
  S3 = S + S* comes from the real half's bins of S1.
* Orbit-weighted compression.  An entry of S1 or S3 depends only on the
  multiset of its row indices and on that of its column indices; an entry
  of S2 changes sign with their order.  Over the sorted multi-indices r
  (strictly increasing for S2) with orbit sizes o_r, the vectors
  e_r = o_r^(-1/2) sum_{I in orbit(r)} (+-)e_I are orthonormal and span the
  rows and columns, so A = V B V^T with B[r, s] = sqrt(o_r o_s) A[r, s]:
    B[r, s] = sqrt(o_r o_s) |Stab(r u s)| bin[r u s]          (S1),
    B[r, s] = sqrt(o_r o_s) sgn(r, s) bin[r u s]              (S2),
  with sgn(r, s) = sgn(I) at I = (r, s), divided by the target's scale.
  S1's B = X + iY is symmetric, so S3's block B + B^H is X + X^T, real
  under every law.  Hence A A* (or A itself when Hermitian) has the
  spectrum of B*B (or B) padded with side - d zeros, where d = C(N+k-1, k)
  on Sym^k and C(N, k) on Lambda^k, and tr (A A*)^n = tr (B*B)^n.
* Stacked real form.  A block B = X + iY is held as one real array of
  shape (2, d, d), its real part stacked on its imaginary part, or (1, d, d)
  for the real law and for S3.  With F = [X; Y] the (2d, d) reshape of it,
    B*B = F^T F + i (X^T Y - (X^T Y)^T),
  one syrk (numpy's path for F.T @ F) and one gemm, half the flops of a
  complex product (gram).  For Hermitian C^a and C^b, tr C^a C^b is the dot
  product of their stacked forms.
* Half-power pairing.  tr C^(a+b) = sum_ij (C^a)_ij (C^b)_ji, so the
  moments up to n_max need the powers of C up to ceil(n_max/2) only; an
  even power is the Gram product of its half, C^2j = (C^j)* C^j.

build_target takes the bins straight from a trial's unscaled normal draws,
as chunks of rows in natural order (tensors.draw_chunks, which describes
how each law draws them), of the real half alone for S3.  A bincount per
chunk sums its draws over each pair of row orbit r' and column orbit s'
into a d x d array H (each draw weighted by the signs of its row and
column k-tuples for S2), over the row orbits that the chunk reaches; a
second bincount folds H into one sum per multiset r' u s' (per set for S2,
each pair weighted by the sign of its merge), and a gather of those sums
writes the block over H, in place.  The index maps and the per-chunk plan
depend only on (N, k, signed), and orbit_maps builds them once.  A chunk
holds at most max(CHUNK_ENTRIES, N^k) draws.

run_experiment returns its report as one plain dict, the record that the
spectrum command prints as JSON, with a dict {n, empirical, stderr,
predicted} per moment order, the rows of the CLI's table and CSV.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .moments import MAX_MOMENT_ORDER
from .perms import guard
from .tensors import MAX_EIGENSOLVE_SIDE, MAX_MAP_ENTRIES, draw_buffer, draw_chunks, trial_rng

# flatten is unused here but stays importable: the benchmark's tracer tests
# check that it is patched in this namespace too
from .tensors import flatten  # noqa: F401

# Bound on the entries of each temporary that orbit_maps and build_target
# make per chunk, and of the buffer that a Gaussian trial draws into: 2k
# indices per orbit pair, one index and one draw per entry of a chunk of
# rows, a chunk holding at least one row.
CHUNK_ENTRIES = 2**16


@dataclass(frozen=True)
class OrbitMaps:
    """build_target's index maps and chunk plan for one (N, k, signed).

    Orbits are numbered by their sorted representatives in lexicographic
    order.  orbit[i] is the orbit of the k-tuple with row-major index i, and
    sign[i] the sign of the permutation sorting it; where a signed tuple
    repeats an index, its sign and orbit are 0.  pair_bin[r, s] is the colex
    rank of the multiset r u s among the len(stab) multisets of 2k indices
    (sets when signed), plus len(stab) where merging r and s is an odd
    permutation, or 2 len(stab) where r and s meet.  stab holds |Stab(M)| of
    each multiset M, and root the square roots of the orbit sizes.

    The plan cuts the N^k rows into chunks of step rows (the last one
    shorter) and holds a triple (live, offset, reached) per chunk: live
    indexes the chunk's rows of nonzero sign (slice(None) where that is all
    of them), reached lists their orbits, ascending, and offset is d times
    the place of each live row's orbit in reached."""

    orbit: np.ndarray
    sign: np.ndarray
    pair_bin: np.ndarray
    stab: np.ndarray
    root: np.ndarray
    step: int
    plan: tuple


@functools.lru_cache(maxsize=None)
def orbit_maps(N, k, signed):
    """The OrbitMaps of (N, k, signed), built a chunk of orbit pairs at a
    time, each chunk within CHUNK_ENTRIES indices."""
    side = N**k
    coords = np.stack(np.unravel_index(np.arange(side), (N,) * k))
    ordered = np.sort(coords, axis=0)
    sign = np.ones(side)
    if signed:
        inversions = sum(coords[a] > coords[b] for a in range(k) for b in range(a + 1, k))
        sign -= 2 * (inversions % 2)
        sign[(ordered[1:] == ordered[:-1]).any(axis=0)] = 0.0
    kept = np.flatnonzero(sign)
    # the sorted tuples in lexicographic order are the orbits' representatives
    reps, inverse, sizes = np.unique(
        ordered[:, kept], axis=1, return_inverse=True, return_counts=True
    )
    orbit = np.zeros(side, dtype=np.intp)
    orbit[kept] = inverse.ravel()
    reps, d, m = reps.T, sizes.size, 2 * k
    step = min(side, max(1, CHUNK_ENTRIES // side))
    plan = []
    for start in range(0, side, step):
        live = np.flatnonzero(sign[start:start + step])
        reached, place = np.unique(orbit[start + live], return_inverse=True)
        whole = live.size == min(step, side - start)
        plan.append((slice(None) if whole else live, d * place, reached))
    bins = math.comb(N, m) if signed else math.comb(N + m - 1, m)
    # colex rank: sum_j C(b_j, j + 1) over the increasing b_j = M_j (+ j for a multiset)
    comb = np.array(
        [[math.comb(n, j) for j in range(m + 1)] for n in range(N + m)], dtype=np.intp
    )
    shift = 0 if signed else 1
    pair_bin = np.empty((d, d), dtype=np.intp)
    stab = np.ones(bins)
    pairs = max(1, CHUNK_ENTRIES // max(1, m * d))
    for start in range(0, d, pairs):
        r = reps[start:start + pairs, None, :]
        merged = np.concatenate(np.broadcast_arrays(r, reps[None]), axis=-1)
        merged.sort(axis=-1)
        rank = sum(comb[merged[..., j] + shift * j, j + 1] for j in range(m))
        repeat = merged[..., 1:] == merged[..., :-1]
        if signed:
            odd = sum(r[..., a] > reps[None, :, b] for a in range(k) for b in range(k)) % 2
            rank += bins * odd
            pair_bin[start:start + pairs] = np.where(repeat.any(axis=-1), 2 * bins, rank)
        else:
            # |Stab(M)| = prod of (run length)!, the product of each index's
            # place within its run of equal indices
            place = np.ones(rank.shape)
            size = np.ones(rank.shape)
            for j in range(m - 1):
                place = np.where(repeat[..., j], place + 1, 1.0)
                size *= place
            stab[rank] = size
            pair_bin[start:start + pairs] = rank
    maps = OrbitMaps(orbit, sign, pair_bin, stab, np.sqrt(sizes), step, tuple(plan))
    # pair_bin stays writeable: np.bincount and np.take copy a read-only index whole
    for array in (orbit, sign, stab, maps.root, *(a for p in plan for a in p)):
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return maps


def build_target(chunks, target, model, N, k):
    """The compressed block of the moments.Target target for the tensor
    that chunks, a trial's draws as tensors.draw_chunks or
    tensors.chunk_views cut them, stands for.  Each chunk is binned before
    the next is taken.  The block reads only the target's signed and
    hermitian flags and its scale, and builds no Mixture.  It is the array
    of shape (model.parts, d, d) of the stacked real form, or (1, d, d) for
    a Hermitian target, which takes the real half's chunks and none after
    them (module docstring); no complex array is formed."""
    signed = target.signed
    maps = orbit_maps(N, k, signed)
    side, d, bins = N**k, maps.root.size, maps.stab.size
    totals = np.zeros((1 if target.hermitian else model.parts, d, d))  # S3: X + X^T
    per_half = len(maps.plan)
    wanted = len(totals) * per_half
    count, indexed = 0, None
    for count, chunk in enumerate(itertools.islice(chunks, wanted), 1):
        half, c = divmod(count - 1, per_half)
        start = c * maps.step
        if chunk.shape != (min(maps.step, side - start), side):
            raise ValueError(f"chunk {count - 1} of shape {chunk.shape} is not the plan's")
        live, offset, reached = maps.plan[c]
        if not reached.size:
            continue
        if indexed != c:  # a half of one chunk reuses the other half's index
            index, indexed = (offset[:, None] + maps.orbit).ravel(), c
        if signed:
            chunk = chunk[live] * maps.sign
            chunk *= maps.sign[start:start + maps.step][live, None]
        counts = np.bincount(index, chunk.ravel(), minlength=reached.size * d)
        totals[half][reached] += counts.reshape(-1, d)
    if count != wanted:
        raise ValueError(f"{count} chunks given, the plan has {wanted}")
    gain = model.gain / (model.scale(N, k) * target.scale(k, model.c, model.c_prime))
    for total in totals:
        # bins of even merges, of odd merges (signed only) and of meeting pairs
        sums = np.bincount(maps.pair_bin.ravel(), total.ravel(), minlength=2 * bins + 1)
        per_bin = (sums[:bins] - sums[bins:2 * bins]) * (maps.stab * gain)
        table = np.concatenate([per_bin, -per_bin, [0.0]])
        # every code is in range; mode "raise" would buffer the output
        np.take(table, maps.pair_bin, out=total, mode="clip")
    totals *= maps.root[:, None]
    totals *= maps.root
    if target.hermitian:
        totals[0] += totals[0].T
    return totals


def gram(A):
    """A*A of the block A, both in the stacked real form (module
    docstring): one syrk, and for a complex A one gemm.  It allocates its
    output and nothing else."""
    d = A.shape[-1]
    flat = A.reshape(len(A) * d, d)
    out = np.empty_like(A)
    if len(A) == 2:
        np.matmul(A[0].T, A[1], out=out[0])  # X^T Y, scratch
        np.subtract(out[0], out[0].T, out=out[1])
    np.matmul(flat.T, flat, out=out[0])
    return out


def product(P, Q):
    """The product P Q of two blocks of one stacked real form, in that form."""
    out = np.matmul(P, Q[0])
    if len(Q) == 2:
        out[0] -= P[1] @ Q[1]
        out[1] += P[0] @ Q[1]
    return out


def trace_power_moments(base, n_max, side=None):
    """tr(base^n) / side for n = 1..n_max by half-power pairing (no
    eigendecomposition).  base is a Hermitian block, or the gram of one, in
    the stacked real form; side defaults to its own, and the side of the
    full target makes a compressed block's traces those of its target."""
    guard("moment order n_max", n_max, MAX_MOMENT_ORDER)
    side = base.shape[-1] if side is None else side
    if side == 0:
        raise ValueError("the empty 0x0 matrix has no normalized trace moments")
    powers = [None, base]  # powers[a] = base^a
    while len(powers) <= (n_max + 1) // 2:
        a = len(powers)
        powers.append(gram(powers[a // 2]) if a % 2 == 0 else product(powers[-1], base))
    out = []
    for n in range(1, n_max + 1):
        a = (n + 1) // 2
        b = n - a
        # tr P Q = <Re P, Re Q> + <Im P, Im Q> for Hermitian P and Q
        tr = np.trace(base[0]) if b == 0 else np.vdot(powers[a].ravel(), powers[b].ravel())
        out.append(float(tr) / side)
    return out


def empirical_spectrum(base):
    """The ascending eigenvalues of the Hermitian base in the stacked real
    form, which a complex base is converted from."""
    guard("eigensolver side", base.shape[-1], MAX_EIGENSOLVE_SIDE)
    return np.linalg.eigvalsh(base[0] if len(base) == 1 else base[0] + 1j * base[1])


def percentiles(ascending, zeros, q):
    """np.percentile(padded, q) of the ascending values padded with zeros
    exact zeros, computed as numpy's default (linear) method computes it,
    from the two order statistics around each point, without the padding."""
    n = ascending.size + zeros
    below = int(np.searchsorted(ascending, 0.0))  # the padding follows these

    def order(i):
        return ascending[i] if i < below else 0.0 if i < below + zeros else ascending[i - zeros]

    out = []
    for point in (n - 1) * np.true_divide(q, 100):
        low = min(int(math.floor(point)), n - 1)
        a, b = order(low), order(min(low + 1, n - 1))
        t = point - low
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out


def histogram(values, side, zeros=0):
    """Freedman-Diaconis histogram plus the mass near zero reported apart, of
    values padded with zeros exact zeros: the same dictionary as that of the
    padded array, whose padding is never formed."""
    values = np.sort(values)
    n = values.size + zeros
    q75, q25 = percentiles(values, zeros, [75, 25])
    iqr = q75 - q25
    lo, hi = values.min(initial=np.inf), values.max(initial=-np.inf)
    if zeros:
        lo, hi = min(lo, 0.0), max(hi, 0.0)
    width = 2 * iqr / n ** (1 / 3) if iqr > 0 else None
    if width and width > 0:
        nbins = max(1, int(math.ceil((hi - lo) / width)))
        nbins = min(nbins, 512)
    else:
        nbins = 32
    counts, edges = np.histogram(values, bins=nbins, range=(lo, hi))
    if zeros:  # into the bin that np.histogram puts 0 in
        counts += zeros * np.histogram([0.0], bins=nbins, range=(lo, hi))[0]
    delta = 3 * iqr / side if iqr > 0 else 1e-3
    zero_mass = int(np.sum(np.abs(values) <= delta)) + zeros
    return {
        "edges": edges.tolist(),
        "counts": counts.tolist(),
        "zero_band": delta,
        "zero_mass": zero_mass,
    }


def run_experiment(model, target, k, N, trials, n_max, seed, with_hist=False):
    """The spectrum report of the moments.Target target (module docstring):
    the inputs, the trial-averaged "moments" with their standard errors and
    predicted limits, the pooled "histogram" with_hist (else None), and
    "counters" and "timings".  Each trial draws its chunks into one reused
    buffer (tensors.draw_chunks), and its moments (and spectrum, with_hist)
    share one operand, the Hermitian block or else its gram, the only array
    of the trial's block size that outlives it.  sample_s counts the
    drawing alone, and build_s the rest of build_target."""
    guard("spectrum trial draws N^(2k)", N ** (2 * k), MAX_MAP_ENTRIES)
    guard("spectrum moments trials n_max", trials * n_max, MAX_MAP_ENTRIES)
    d = math.comb(N, k) if target.signed else math.comb(N + k - 1, k)
    if with_hist:
        guard("pooled eigenvalues trials d", trials * d, MAX_MAP_ENTRIES)
    model.check_samplable()
    start = time.perf_counter()
    maps = orbit_maps(N, k, target.signed)
    timings = {
        "maps_s": time.perf_counter() - start,
        **dict.fromkeys(("sample_s", "build_s", "moments_s", "hist_s"), 0.0),
    }
    out = draw_buffer(model, N**k, maps.step)
    samples = np.zeros((trials, n_max))
    pooled = [] if with_hist else None
    for trial in range(trials):
        start, sample_s = time.perf_counter(), timings["sample_s"]
        chunks = draw_chunks(model, N**k, maps.step, trial_rng(seed, trial), out, timings)
        base = build_target(chunks, target, model, N, k)
        built = time.perf_counter()
        if not target.hermitian:
            base = gram(base)  # drops the block
        samples[trial] = trace_power_moments(base, n_max, N**k)
        done = time.perf_counter()
        if with_hist:
            pooled.append(empirical_spectrum(base))
            timings["hist_s"] += time.perf_counter() - done
        del base  # before the next trial builds its block
        timings["build_s"] += built - start - (timings["sample_s"] - sample_s)
        timings["moments_s"] += done - built
    means = samples.mean(axis=0)
    stderr = (
        samples.std(axis=0, ddof=1) / math.sqrt(trials) if trials > 1 else np.zeros(n_max)
    )
    predicted = target.predicted_moments(k, n_max)
    # B*B unless Hermitian, then the powers up to ceil(n_max/2), one product each
    matmuls = (n_max + 1) // 2 - target.hermitian if d else 0
    hist = None
    if with_hist:
        start = time.perf_counter()
        # each trial's N^k - d zeros counted, not pooled
        hist = histogram(np.concatenate(pooled), N**k, trials * (N**k - d))
        timings["hist_s"] += time.perf_counter() - start
    return {
        "target": target.name, "model": model.describe(), "N": N, "k": k, "trials": trials,
        "n_max": n_max, "seed": seed,
        "moments": [
            {"n": n + 1, "empirical": float(means[n]), "stderr": float(stderr[n]),
             "predicted": float(predicted[n])}
            for n in range(n_max)
        ],
        "histogram": hist,
        "counters": {
            "side": N**k, "compressed_side": d, "matmuls": int(matmuls),
            "orbit_bins": maps.stab.size,
        },
        "timings": timings,
    }


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
