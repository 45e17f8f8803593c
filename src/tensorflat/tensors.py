"""Random tensor sampling, flattenings, permutation operators, and the
finite-size conditional expectation onto the group-algebra span.

Conventions shared by the whole package:
  * multi-indices linearize row-major: encode(i_1..i_k) = sum (i_j - 1) N^(k-j);
  * the flattening by sigma puts the tensor entry whose p-th coordinate is
    i_{sigma(p)} at matrix position (i_1..i_k), (i_{k+1}..i_{2k});
  * the permutation operator U_eta has entries U[i, j] = 1 iff j_s = i_{eta(s)}
    for all s, which makes eta -> U_eta a representation (U_eta U_eta2 =
    U_{eta eta2}) and yields U_eta M_sigma U_eta2^* = M_{(eta join eta2) sigma}
    exactly, which is what lets a word fold the operators between its
    letters into the flattenings (moments.Letter.followed_by);
  * every entry of a letter's matrix M_a reads one tensor entry, so the
    projection of a two-letter product is a sum over tensor entries:
      tr(M_a M_b U_eta^*) = sum_q f_a(x)[Q_eta[q]] f_b(x)[q],
    with x the raveled entries, f = conj on an adjoint letter and Q_eta a
    flat index map fixed by the word and N (PairProjection).  Every law
    the samplers draw is centred (TensorModel), so the sum is quadratic in
    x = c z, with z a trial's unscaled normal draws and c real, and
    PairProjection.samples sums over z, drawn into a reused buffer, and
    multiplies by c^2 once, after the last trial.

Each trial has its own random stream, trial_rng(seed, trial), the PCG64 of
SeedSequence(seed, spawn_key=(trial,)).  Building that generator takes longer
than a k = 1 trial's draws, so PairProjection.samples reuses one generator
per worker and sets it to each trial's state, which trial_states computes for
a block of trials at once: the streams are trial_rng's, bit for bit.  The
draws and dot products release the interpreter lock, so
PairProjection.samples splits the trials into contiguous chunks, one per
worker, up to the CPUs of the process's affinity set: the caller runs the
first chunk and a concurrent.futures.ThreadPoolExecutor the others, and
leaving the pool joins every worker; one worker starts no pool.  Every
trial's column is computed as with one worker, so the estimates are
bit-identical for any worker count.  Threads are used only when one trial
draws at least MIN_THREADED_DRAWS = 4096 normals (2 N^2k for the complex
and diluted laws, N^2k for the real law): on 2 cores two threads took
0.59-0.86x the time of one above it, and 0.94-2.6x below it (README).  A
worker takes its chunk in blocks of B = max(1, BLOCK_ENTRIES // N^2k)
trials, or all the call's trials if fewer: per trial it sets the state and
draws into a row of a reused (B, parts N^2k) buffer, and per block it
composes one (B, N^2k) z and makes one gather and one row-wise dot per map.
The stacked matmul and vecdot equal np.dot and np.vdot row by row, bit for
bit.  Each worker holds 48 B N^2k bytes of buffers for the complex laws and
16 B N^2k for the real law, at most 192 KiB below the bound.  The seeding,
sampling and estimating timings are summed over every worker's trials, so
they can exceed the wall time of the call.

TensorModel fixes the draw layout.  A trial's stream (draw_halves) is parts
N^2k standard normals, the real parts then the imaginary parts, and for the
diluted law N^2k uniforms after them, one Bernoulli(p) mask for both halves.
An entry is gain (z_re + i z_im), or z for the real law, over scale(N, k).
The gain is base_scale / sqrt(2) (1 for the real law), and scale(N, k) is
sqrt(N^k unit2) with the squared unit unit2 of TensorModel, 1 for the
Gaussian laws; sample_tensor, PairProjection.samples and build_target share
this rule.
The spectrum trials take the stream as chunks of rows (draw_chunks): the
Gaussian laws draw each chunk just in time into one reused buffer
(draw_buffer), so a trial holds no N^2k draws, while the diluted law's mask
follows all its normals, so its buffer holds the whole trial.  S3 takes the
real half's chunks alone, so a Gaussian trial of it draws no imaginary half.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import time
import types
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .group_algebra import AlgebraElement
from .perms import group, guard


class CumulantTable(NamedTuple):
    """A law's joint cumulants up to an order, free of N.

    K[m, n], for 1 <= m + n <= order, is N^(k (m + n) / 2) times the joint
    cumulant of m copies of an entry and n of its conjugate at any size N.
    support holds the (m, n) with K != 0, by increasing m + n.  coverable
    holds the (plain, adjoint) counts P + A <= order, (0, 0) included, that
    a union of blocks with K != 0 can make up: a word whose letter counts
    lie outside it has no letter partition with a nonzero weight, and its
    expected trace is 0 (traffic module docstring)."""

    K: types.MappingProxyType
    support: tuple
    coverable: frozenset


@dataclass(frozen=True)
class TensorModel:
    """Entry law of the random tensor, the one record that knows its
    statistics, all derived from moment(m, n), and its draw layout (module
    docstring).

    kind is one of "complex_ginibre", "real_ginibre", "diluted".  The diluted
    model multiplies a base variable y by an independent Bernoulli(p) mask,
    recenters, and rescales so the squared-entry normalization is exact at
    every N.  The base is base_scale * (standard complex Gaussian), which the
    samplers draw, or else the law whose moments E[y^m conj(y)^n] base_moments
    holds by (m, n), which only the oracle and the limit read.  A dict given
    as base_moments is held as its sorted items, so the record is hashable.
    """

    kind: str
    p: float = 1.0
    base_scale: float = 1.0
    base_moments: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("complex_ginibre", "real_ginibre", "diluted"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.base_moments is not None:
            object.__setattr__(self, "base_moments", tuple(sorted(dict(self.base_moments).items())))
        if self.kind == "diluted":
            if not (0 < self.p <= 1):
                raise ValueError(f"dilution probability {self.p} outside (0, 1]")
            if self.base_moments is not None and self.base_scale != 1.0:
                raise ValueError("give a diluted base by base_scale or by base_moments, not both")
            if self.beta2 <= abs(self.alpha) ** 2 * self.p:
                raise ValueError("degenerate variance: beta2 <= |alpha|^2 p")

    @classmethod
    def complex_ginibre(cls):
        return cls("complex_ginibre")

    @classmethod
    def real_ginibre(cls):
        return cls("real_ginibre")

    @classmethod
    def diluted(cls, p, base_moments=None, base_scale=1.0):
        return cls("diluted", p=p, base_scale=base_scale, base_moments=base_moments)

    def base_moment(self, m, n):
        """E[y^m conj(y)^n] of the diluted law's base variable y."""
        if self.base_moments is None:
            return float(math.factorial(m)) * self.base_scale ** (2 * m) if m == n else 0.0
        moments = dict(self.base_moments)
        if (m, n) not in moments:
            raise ValueError(f"base moment {(m, n)} not provided")
        return moments[(m, n)]

    @property
    def alpha(self):
        """E y of the diluted law's base."""
        return complex(self.base_moment(1, 0))

    @property
    def beta2(self):
        """E|y|^2 of the diluted law's base."""
        return float(complex(self.base_moment(1, 1)).real)

    def check_samplable(self):
        """Raises unless the samplers can draw this law."""
        if self.base_moments is not None:
            raise ValueError("a base given only by its moments cannot be sampled; give it by base_scale")

    @property
    def c(self):
        """Limit of N^k E|entry|^2: the cumulant K[1, 1]."""
        return self.cumulant_table(2).K[(1, 1)].real

    @property
    def c_prime(self):
        """Limit of N^k E[entry^2]: the cumulant K[2, 0]."""
        return self.cumulant_table(2).K[(2, 0)]

    @property
    def parts(self):
        """The standard normals drawn per entry (module docstring)."""
        return 1 if self.kind == "real_ginibre" else 2

    @property
    def gain(self):
        """An entry's factor on its normals, before scale (module docstring)."""
        return 1.0 if self.parts == 1 else self.base_scale / math.sqrt(2)

    @property
    def unit2(self):
        """The squared unit scale(1, 1)^2, by which moment divides too: 1 for
        the Gaussian laws, p (beta2 - |alpha|^2 p) / beta2 for the diluted law."""
        if self.kind != "diluted":
            return 1.0
        return self.p * (self.beta2 - abs(self.alpha) ** 2 * self.p) / self.beta2

    def scale(self, N, k):
        """Per-entry normalization factor sqrt(N^k unit2): entries are raw / scale."""
        return math.sqrt(N**k * self.unit2)

    def moment(self, m, n):
        """The N-free M[m, n] = N^(k (m + n) / 2) E[entry^m conj(entry)^n]:
        m! delta_mn (complex Ginibre), (m + n - 1)!! for even m + n (real
        Ginibre), or the diluted law's centred moment over unit2 to the
        (m + n) / 2."""
        if self.kind == "complex_ginibre":
            return float(math.factorial(m)) if m == n else 0.0
        if self.kind == "real_ginibre":
            return 0.0 if (m + n) % 2 else float(math.prod(range(m + n - 1, 0, -2)))
        return self._diluted_moment(m, n) / self.unit2 ** ((m + n) / 2)

    def entry_moment(self, m, n, N, k):
        """Exact joint moment E[entry^m conj(entry)^n] at size N."""
        return self.moment(m, n) * float(N) ** (-k * (m + n) / 2.0)

    @functools.cache
    def cumulant_table(self, order):
        """The law's CumulantTable up to order, built once per process for
        each law and order: the record is hashable, so equal laws share one.

        One moment-cumulant recursion over M = moment serves every law,
        splitting off the block of one plain copy (of one conjugate copy
        when m = 0):
          M[m, n] = sum_{a, b} C(m-1, a) C(n, b) K[a+1, b] M[m-1-a, n-b].
        The Gaussian moments are integers, so their K is exact: 1 on the
        support, (1, 1) (complex) or the three keys of order 2 (real), and
        exact zeros elsewhere.  K[1, 1] = c and K[2, 0] = c' by definition.
        """
        keys = [(m, s - m) for s in range(1, order + 1) for m in range(s + 1)]
        M = {key: self.moment(*key) for key in [(0, 0), *keys]}
        K = {}
        for m, n in keys:
            if m:
                rest = sum(
                    math.comb(m - 1, a) * math.comb(n, b) * K[(a + 1, b)] * M[(m - 1 - a, n - b)]
                    for a in range(m) for b in range(n + 1) if (a, b) != (m - 1, n)
                )
            else:
                rest = sum(
                    math.comb(n - 1, b) * K[(0, b + 1)] * M[(0, n - 1 - b)]
                    for b in range(n - 1)
                )
            K[(m, n)] = M[(m, n)] - rest
        support = tuple(key for key in keys if K[key] != 0)
        coverable = {(0, 0)}
        for m, n in keys:  # by increasing m + n, so every smaller count is decided
            if any((m - a, n - b) in coverable for a, b in support if a <= m and b <= n):
                coverable.add((m, n))
        # read-only, since every caller shares the cached table
        return CumulantTable(types.MappingProxyType(K), support, frozenset(coverable))

    def _diluted_moment(self, m, n):
        # E[(x - alpha p)^m (conj(x) - conj(alpha) p)^n] by binomial expansion,
        # with x = Bernoulli(p) * y so E[x^a conj(x)^b] = p E[y^a conj(y)^b]
        # whenever (a, b) != (0, 0).
        p, al = self.p, complex(self.alpha)
        total = 0.0 + 0.0j
        for a in range(m + 1):
            for b in range(n + 1):
                if a == 0 and b == 0:
                    raw = 1.0
                else:
                    raw = p * complex(self.base_moment(a, b))
                total += (
                    math.comb(m, a)
                    * math.comb(n, b)
                    * (-al * p) ** (m - a)
                    * (-al.conjugate() * p) ** (n - b)
                    * raw
                )
        return total

    def describe(self):
        out = {"kind": self.kind, "c": self.c,
               "c_prime": [complex(self.c_prime).real, complex(self.c_prime).imag]}
        if self.kind == "diluted":
            out["p"] = self.p
            out["alpha"] = [complex(self.alpha).real, complex(self.alpha).imag]
            out["beta2"] = self.beta2
        return out


def parse_model(spec):
    """Model spec strings: complex_ginibre | real_ginibre | diluted[:p=0.1]."""
    if spec is None or spec == "complex_ginibre":
        return TensorModel.complex_ginibre()
    if spec == "real_ginibre":
        return TensorModel.real_ginibre()
    name, colon, params = spec.partition(":")
    if name == "diluted":
        p = 0.5
        if colon:
            for item in params.split(","):
                key, _, value = item.partition("=")
                if key == "p":
                    p = float(value)
                else:
                    raise ValueError(f"unknown diluted parameter {key!r}")
        return TensorModel.diluted(p)
    raise ValueError(f"unknown model spec {spec!r}")


@dataclass(frozen=True)
class RandomTensor:
    N: int
    k: int
    entries: np.ndarray  # shape (N,) * 2k, complex


def trial_rng(seed, trial=0):
    """Independent, reproducible stream for one Monte Carlo trial."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


# numpy's SeedSequence hash constants and PCG64's multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def _hashmix(value, const, mult=_MULT_A):
    # (hashed value, next const); value is an int or a uint32 array, whose
    # products wrap as the masks wrap the ints
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> 16, const_next


def trial_states(seed, trials):
    """The PCG64 (state, inc) of trial_rng(seed, trial) for every trial of
    the range trials, as a list of ints.  SeedSequence(seed, spawn_key=(trial,))
    mixes the trial's word into SeedSequence(seed).pool, whose hash constant
    has taken 16 + 4 max(0, words - 4) steps for a seed of that many 32-bit
    words; that mixing and the eight output words run over the trials in
    uint32 arrays.  PCG64 seeds with the output words as initstate and
    initseq: inc = 2 initseq + 1, state = (inc + initstate) MULT + inc, mod 2^128."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed {seed} is negative")
    if trials and not (0 <= min(trials[0], trials[-1]) and max(trials[0], trials[-1]) < 2**32):
        raise ValueError(f"trials {trials} need spawn keys in 0..2^32-1")
    words = max(1, -(-seed.bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - 4), 2**32) & _MASK32
    pool = np.random.SeedSequence(seed).pool.tolist()
    word = np.arange(trials.start, trials.stop, trials.step, dtype=np.uint32)
    for dst in range(4):  # numpy's mix(pool[dst], hashmix(word))
        value, const = _hashmix(word, const)
        mixed = (_MIX_L * pool[dst] & _MASK32) - (_MIX_R * value & _MASK32) & _MASK32
        pool[dst] = mixed ^ mixed >> 16
    const, out = _INIT_B, []
    for i in range(8):
        value, const = _hashmix(pool[i % 4], const, _MULT_B)
        out.append(value.tolist())
    states = []
    for w in zip(*out):
        # the little-endian uint64 words (w0 w1), (w2 w3) are initstate's
        # high and low halves, and (w4 w5), (w6 w7) initseq's
        initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        inc = (w[5] << 97 | w[4] << 65 | w[7] << 33 | w[6] << 1 | 1) & _MASK128
        states.append((((inc + initstate) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def sample_tensor(model, N, k, seed, trial=0):
    """The tensor of trial_rng(seed, trial): draw_halves' unscaled draws z as
    entries by the rule of the module docstring, gain (z_re + i z_im) (z
    itself for the real law) over model.scale(N, k)."""
    model.check_samplable()
    size = N ** (2 * k)
    z = draw_halves(model, size, trial_rng(seed, trial), np.empty(model.parts * size))
    if model.parts == 1:
        raw = z.astype(complex)
    else:
        raw = model.gain * (z[:size] + 1j * z[size:])
    return RandomTensor(N, k, (raw / model.scale(N, k)).reshape((N,) * (2 * k)))


def flatten(t, sigma):
    """The N^k x N^k flattening whose (rows, cols) entry is the tensor at the
    tuple with p-th coordinate i_{sigma(p)}; it may share memory with
    t.entries."""
    if sigma.n != 2 * t.k:
        raise ValueError(f"degree {sigma.n} != 2k = {2 * t.k}")
    inv = sigma.inverse()
    axes = [inv(p) - 1 for p in range(1, 2 * t.k + 1)]
    side = t.N**t.k
    return t.entries.transpose(axes).reshape(side, side)


@functools.cache
def tuple_index_map(eta, N):
    """Index array m with m[encode(i)] = encode(j), j_s = i_{eta(s)}.

    Computed once per (eta, N) and shared by every caller, so it is
    read-only.  The map of eta^-1 is the inverse of the map of eta.
    """
    k = eta.n
    coords = np.unravel_index(np.arange(N**k), (N,) * k)
    permuted = tuple(coords[eta(s) - 1] for s in range(1, k + 1))
    out = np.ravel_multi_index(permuted, (N,) * k)
    out.flags.writeable = False
    return out


def perm_matrix(eta, N):
    """Dense permutation operator U_eta on the k-fold tensor power, as a
    complex array."""
    side = N**eta.n
    data = np.zeros((side, side))
    data[np.arange(side), tuple_index_map(eta, N)] = 1.0
    return data.astype(complex)


def _N_of(A, k):
    side = A.shape[0]
    N = round(side ** (1.0 / k))
    for cand in (N - 1, N, N + 1):
        if cand >= 1 and cand**k == side:
            return cand
    raise ValueError(f"side {side} is not a perfect k-th power for k={k}")


def phi_N(A):
    """Normalized trace of a single sample (no expectation)."""
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix is not square")
    return complex(np.trace(A)) / A.shape[0]


def _warn_if_dependent(N, k):
    if N < k:
        warnings.warn(
            f"N={N} < k={k}: permutation operators are linearly dependent; "
            "coefficients are not a unique decomposition",
            stacklevel=3,
        )


def cond_expect_N(A, k):
    """Project the array A onto the span of permutation operators: the
    coefficient of u_eta is the normalized trace of A U_eta^*
    = sum_i A[i, m_eta(i)] / side, with m the tuple map."""
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix is not square")
    N = _N_of(A, k)
    _warn_if_dependent(N, k)
    side = A.shape[0]
    rows = np.arange(side)
    coeffs = {}
    for eta in group(k):
        total = A[rows, tuple_index_map(eta, N)].sum()
        coeffs[eta] = complex(total) / side
    return AlgebraElement(k, coeffs)


# Bound on the entries of an array that grows like N^2k or with the trials (at
# most 16 bytes each: 256 MB); it also keeps every spawn key one 32-bit word.
MAX_MAP_ENTRIES = 2**24
MAX_EIGENSOLVE_SIDE = 4096  # a dense eigensolve: side^2 entries (256 MB complex), side^3 time

# A trial drawing fewer normals than this runs its chunk loop on the calling
# thread alone (module docstring).
MIN_THREADED_DRAWS = 4096

# The trials whose PCG64 states a worker of PairProjection.samples makes in
# one trial_states call: 150 bytes of ints a trial, 490 at the call's peak
# (tracemalloc), so at most 2 MB a worker at any trial count.
SEED_BLOCK = 4096

# Bound on the entries of a block of PairProjection.samples (module docstring).
BLOCK_ENTRIES = 4096


def check_trials(k, trials):
    """The guard on the k! trials estimates of PairProjection.samples."""
    guard("covariance estimates k! trials", math.factorial(k) * trials, MAX_MAP_ENTRIES)


def usable_cpus():
    """The number of CPUs this process may run on: its affinity set, or every
    CPU where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def draw_halves(model, size, rng, out):
    """One trial's unscaled draws into out: model.parts size standard
    normals, the real then the imaginary halves, both halves masked by the
    same Bernoulli(p) draw for the diluted law.  sample_tensor,
    PairProjection.samples and the spectrum trials (draw_chunks) all draw
    this stream."""
    rng.standard_normal(out=out)
    if model.kind == "diluted":
        halves = out.reshape(2, size)
        halves *= rng.random(size) < model.p
    return out


def draw_buffer(model, side, step):
    """The buffer that draw_chunks reuses for every trial (module docstring)."""
    return np.empty(2 * side * side if model.kind == "diluted" else step * side)


def chunk_views(draws, side, step):
    """draws, a trial's whole draw_halves buffer, as chunks: views of step
    rows of side draws (the last of each half shorter), the real half's
    rows before the imaginary half's."""
    for half in draws.reshape(-1, side, side):
        for start in range(0, side, step):
            yield half[start:start + step]


def draw_chunks(model, side, step, rng, out, timings):
    """A trial's unscaled draws from rng, the stream of draw_halves, as the
    chunks of chunk_views, drawn into out = draw_buffer(model, side, step)
    (module docstring).  The drawing time is added to timings["sample_s"]."""
    if model.kind == "diluted":
        start = time.perf_counter()
        draw_halves(model, side * side, rng, out)
        timings["sample_s"] += time.perf_counter() - start
        yield from chunk_views(out, side, step)
        return
    for _ in range(model.parts):
        for row in range(0, side, step):
            chunk = out[:min(step, side - row) * side]
            start = time.perf_counter()
            rng.standard_normal(out=chunk)
            timings["sample_s"] += time.perf_counter() - start
            yield chunk.reshape(-1, side)


class PairProjection:
    """cond_expect_N(word_eval(t, w), k) for a two-letter word w = (a, b)
    at size N, without forming a matrix.  With m the tuple map,
      tr(M_a M_b U_eta^*) = sum_ij M_a[m_eta^-1(i), j] M_b[j, i].
    Evaluating each letter on the tensor of flat indices arange(N^2k) gives
    the entry that each matrix position reads (an adjoint reads the
    transposed position), so the pair (j, i) is one tensor entry q of M_b
    and Q_eta[q] the entry of M_a it meets.  A projection then costs one
    gather and one dot product per eta.  The maps take k! N^2k indices and
    belong to one word: build them once per word, not per tensor."""

    def __init__(self, w, N):
        if len(w) != 2:
            raise ValueError(f"a pair projection needs a word of 2 letters, got {len(w)}")
        k = w.k
        size = N ** (2 * k)
        guard("pair map entries k! N^(2k)", math.factorial(k) * size, MAX_MAP_ENTRIES)
        _warn_if_dependent(N, k)
        index = RandomTensor(N, k, np.arange(size).reshape((N,) * (2 * k)))
        first, second = word_eval(index, w[:1]), word_eval(index, w[1:])
        self.N, self.k = N, k
        self.eps = tuple(l.eps for l in w.letters)
        self.maps = []
        for eta in group(k):
            q = np.empty(size, dtype=np.intp)
            q[second] = first[tuple_index_map(eta.inverse(), N)].T
            self.maps.append(q)

    def samples(self, model, seed, trials):
        """The k! x trials complex array of the projection's coefficients on
        sample_tensor(model, N, k, seed, trial), rows in group(k) order: sums
        over the unscaled draws z, scaled once (module docstring).  Each sum is
        a row of one row-wise dot, chosen once by the letters' eps: vecdot
        conjugates its first argument, so the adjoint letter's entries go
        first, and a sum of two adjoint letters is the conjugate of the plain
        one.

        The trials are cut into one contiguous chunk per worker (module
        docstring); the caller runs the first chunk and a ThreadPoolExecutor
        the others, all with their own buffers, each writing only its chunk's
        columns.  Each worker reuses one PCG64, set to each trial's state
        from trial_states, SEED_BLOCK trials at a time, so it draws the
        stream of trial_rng(seed, trial), in blocks of block_trials trials
        (module docstring) that the seed blocks may cut across.  Leaving the
        pool joins every worker, and the lowest failing chunk's exception is
        raised only after all of them are done; one worker starts no pool.
        Sets self.workers, self.block_trials, and self.timings: seeding,
        sampling and estimating time, summed over the trials of every worker."""
        check_trials(self.k, trials)
        model.check_samplable()
        size, side = self.N ** (2 * self.k), self.N**self.k
        real = model.parts == 1
        draws = model.parts * size
        block = max(1, min(trials, BLOCK_ENTRIES // size))  # trials a block
        dot = {  # into c, row by row np.dot's and np.vdot's sums to the bit
            ("1", "1"): lambda m, z, c: np.matmul(m[:, None], z[:, :, None], out=c[:, None, None]),
            ("*", "1"): lambda m, z, c: np.vecdot(m, z, out=c),
            ("1", "*"): lambda m, z, c: np.vecdot(z, m, out=c),
            ("*", "*"): lambda m, z, c: np.conjugate(
                np.matmul(m[:, None], z[:, :, None], out=c[:, None, None])[:, 0, 0], out=c),
        }[self.eps]
        out = np.empty((len(self.maps), trials), dtype=complex)

        def run(chunk):
            buf = np.empty((block, draws))
            z = buf if real else np.empty((block, size), dtype=complex)
            met = np.empty_like(z)
            rng = np.random.Generator(np.random.PCG64())
            seed_s = sample_s = estimate_s = 0.0
            stream = itertools.chain.from_iterable(  # SEED_BLOCK trials a call, as needed
                trial_states(seed, chunk[at:at + SEED_BLOCK])
                for at in range(0, len(chunk), SEED_BLOCK))
            for at in range(0, len(chunk), block):
                cols = chunk[at:at + block]
                start = time.perf_counter()
                states = list(itertools.islice(stream, len(cols)))
                seeded = time.perf_counter()
                for row, (state, inc) in zip(buf, states):
                    rng.bit_generator.state = {
                        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0,
                    }
                    draw_halves(model, size, rng, row)
                zs, mets = z[:len(cols)], met[:len(cols)]
                if not real:
                    zs.real, zs.imag = buf[:len(cols), :size], buf[:len(cols), size:]
                sampled = time.perf_counter()
                for q, cell in zip(self.maps, out[:, cols.start:cols.stop]):
                    zs.take(q, axis=1, out=mets, mode="clip")  # q is in range: no checks
                    dot(mets, zs, cell)
                seed_s += seeded - start
                sample_s += sampled - seeded
                estimate_s += time.perf_counter() - sampled
            return seed_s, sample_s, estimate_s

        workers = max(1, min(usable_cpus(), trials)) if draws >= MIN_THREADED_DRAWS else 1
        chunks = [range(trials * i // workers, trials * (i + 1) // workers) for i in range(workers)]
        if workers == 1:  # an empty pool costs such a call about 1 % (README)
            spent = [run(chunks[0])]
        else:
            from concurrent.futures import ThreadPoolExecutor  # only threaded calls import it
            with ThreadPoolExecutor(workers - 1) as pool:
                others = [pool.submit(run, chunk) for chunk in chunks[1:]]
                spent = [run(chunks[0])] + [other.result() for other in others]
        out *= model.gain**2 / (model.scale(self.N, self.k) ** 2 * side)
        self.workers, self.block_trials = workers, block
        self.timings = dict(zip(("seed_s", "sample_s", "estimate_s"), map(sum, zip(*spent))))
        return out


def word_eval(t, w):
    """The product of a Word (from the moments module) on the tensor t: each
    letter multiplies by its flattening (or the adjoint).  The word's
    permutation operators are folded into its letters, so no operator is
    applied here.

    The empty word gives the N^k x N^k identity; a word of L letters makes
    L - 1 products, and the result never shares memory with t.entries.
    """
    out = None
    for letter in w.letters:
        m = flatten(t, letter.sigma)
        if letter.eps == "*":
            m = m.conj().T
        out = m if out is None else out @ m
    if out is None:
        out = np.eye(t.N**t.k, dtype=complex)
    elif np.may_share_memory(out, t.entries):
        out = out.copy()
    return out


def choi_check(N, k):
    """Positivity and idempotency certificate for the conditional expectation.

    Builds C = sum_eta U_eta tensor conj(U_eta) and returns its smallest
    eigenvalue together with the max-norm defect of C^2 - k! C.
    """
    side = N ** (2 * k)
    guard("Choi matrix side N^(2k)", side, MAX_EIGENSOLVE_SIDE)
    C = np.zeros((side, side), dtype=complex)
    for eta in group(k):
        U = perm_matrix(eta, N)
        C += np.kron(U, U.conj())
    min_eig = float(np.linalg.eigvalsh(C).min())
    defect = float(np.abs(C @ C - math.factorial(k) * C).max())
    return min_eig, defect
