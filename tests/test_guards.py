"""Every size bound of the package goes through perms.guard: each site
refuses the first value past its bound with the one-line message
"<what> = <value> exceeds the guard of <bound>" before allocating what it
bounds, and lets the bound itself through, which is run here only where
that is cheap."""

import ast
import pathlib

import numpy as np
import pytest

import tensorflat
from tensorflat.moments import Letter, Target, Word, _nc_partner_table
from tensorflat.perms import group
from tensorflat.spectra import empirical_spectrum, run_experiment, trace_power_moments
from tensorflat.tensors import PairProjection, TensorModel, check_trials, choi_check
from tensorflat.traffic import check_letters

# a law given only by its moments: run_experiment refuses to sample it right
# after its guards, so a call that reaches that refusal has passed them
MOMENTS_ONLY = TensorModel.diluted(0.5, base_moments={(1, 0): 0.0, (1, 1): 1.0})


def spectrum(k, N, trials, n_max, with_hist=False):
    return lambda: run_experiment(
        MOMENTS_ONLY, Target.S1, k, N, trials, n_max, seed=0, with_hist=with_hist
    )


def sampled(call):
    """call, expected to pass its guards and stop at the refusal to sample
    MOMENTS_ONLY, before anything is drawn."""

    def check():
        with pytest.raises(ValueError, match="cannot be sampled"):
            call()

    return check


def pair(N):
    identity = Letter(group(2)[0], "1")
    return lambda: PairProjection(Word(1, (identity, identity)), N)


EYE = np.eye(2)[None]  # a block in the stacked real form
SITES = [
    pytest.param(
        lambda: group(9), lambda: group(8),
        "enumerated degree n = 9 exceeds the guard of 8", id="perms.group",
    ),
    pytest.param(
        lambda: _nc_partner_table(22), lambda: _nc_partner_table(20),
        "pairing points n = 22 exceeds the guard of 20", id="moments._nc_partner_table",
    ),
    pytest.param(
        lambda: Target.S1.predicted_moments(2, 13), lambda: Target.S1.predicted_moments(2, 12),
        "moment order n_max = 13 exceeds the guard of 12", id="Target.predicted_moments",
    ),
    pytest.param(
        lambda: trace_power_moments(EYE, 13), lambda: trace_power_moments(EYE, 12),
        "moment order n_max = 13 exceeds the guard of 12", id="spectra.trace_power_moments",
    ),
    pytest.param(
        lambda: empirical_spectrum(np.broadcast_to(0.0, (1, 4097, 4097))), None,
        "eigensolver side = 4097 exceeds the guard of 4096", id="spectra.empirical_spectrum",
    ),
    pytest.param(
        spectrum(1, 4097, 1, 1), sampled(spectrum(1, 4096, 1, 1)),
        "spectrum trial draws N^(2k) = 16785409 exceeds the guard of 16777216",
        id="spectra.run_experiment-draws",
    ),
    pytest.param(
        spectrum(1, 1, 2**24 + 1, 1), sampled(spectrum(1, 1, 2**24, 1)),
        "spectrum moments trials n_max = 16777217 exceeds the guard of 16777216",
        id="spectra.run_experiment-moments",
    ),
    pytest.param(
        # 2^24 + 1 = 97 * 172961 pooled eigenvalues, at 172961 moments; the
        # bound is on the d = 136 eigenvalues of a trial at k = 2, N = 16,
        # not on its N^k = 256 (123361 * 256 > 2^24)
        spectrum(1, 97, 172961, 1, True), sampled(spectrum(2, 16, 2**24 // 136, 1, True)),
        "pooled eigenvalues trials d = 16777217 exceeds the guard of 16777216",
        id="spectra.run_experiment-pooled",
    ),
    pytest.param(
        lambda: check_trials(1, 2**24 + 1), lambda: check_trials(1, 2**24),
        "covariance estimates k! trials = 16777217 exceeds the guard of 16777216",
        id="tensors.check_trials",
    ),
    pytest.param(
        pair(4097), None,
        "pair map entries k! N^(2k) = 16785409 exceeds the guard of 16777216",
        id="tensors.PairProjection",
    ),
    pytest.param(
        lambda: choi_check(65, 1), None,
        "Choi matrix side N^(2k) = 4225 exceeds the guard of 4096", id="tensors.choi_check",
    ),
    pytest.param(
        lambda: check_letters(13), lambda: check_letters(12),
        "oracle letters L = 13 exceeds the guard of 12", id="traffic.check_letters",
    ),
]


@pytest.mark.parametrize("past, at, message", SITES)
def test_every_guard_names_its_bound(past, at, message):
    with pytest.raises(ValueError) as error:
        past()
    assert str(error.value) == message
    if at is not None:  # None where the bound itself would allocate the object
        at()


def test_only_guard_raises_for_a_size_bound():
    # a raise whose message speaks of a guard or of exceeding a bound, outside
    # perms.guard, is a size bound that bypasses the helper
    offenders = []
    for path in sorted(pathlib.Path(tensorflat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        exempt = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and func.name == "guard"
            and path.name == "perms.py"
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None or id(node) in exempt:
                continue
            text = " ".join(
                part.value for part in ast.walk(node.exc)
                if isinstance(part, ast.Constant) and isinstance(part.value, str)
            ).lower()
            if "guard" in text or "exceed" in text:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
