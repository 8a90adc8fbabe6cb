"""The input contract: every callable that ``multiqf`` exports, fed one bad
argument at a time, raises a ``MultiqfError`` or returns only finite values.

Each callable has one valid call below.  Every argument of it is replaced in
turn by each value of ``BAD``, the others kept valid.  A layout is used by
composing it and a simulation config by simulating it, since their ports,
transmittances, output permutation and transfer matrix are checked there.
A returned value may be non-finite only where the valid call's is too (an
ideal bound's dominance ratio is NaN by definition).  A bool, NaN, +-inf or
a string is never a valid number, so it must raise, apart from the
arguments in ``UNREAD``.
"""

import cmath
import contextlib
import dataclasses
import math
import numbers
import signal

import numpy as np
import pytest

import multiqf as mq
from multiqf.errors import (
    InvalidDimensionError,
    LayoutError,
    MultiqfError,
    ParameterError,
)

BAD = {
    "True": True,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "-1": -1,
    "0": 0,
    "-0.5": -0.5,
    "1e300": 1e300,
    "2**70": 2**70,
    "string": "0.5",
}

#: Values of ``BAD`` that no numeric argument accepts.
REJECTED = {"True", "nan", "inf", "-inf", "string"}

#: (callable, argument) pairs that may take them: a beamsplitter element does
#: not read its phase, and the string "0.5" is a valid design name.
UNREAD = {("CircuitElement", "phase"), ("CircuitLayout", "design")}

#: Records the package returns; they are not entry points.
RESULTS = {"BatchGains", "BoundResult", "SimOutcome", "VerifyReport"}

ECC = mq.ECCParams.from_delta(0.78)
PARAMS = mq.ProtocolParams(k=4, n_bits=1e6, ecc=ECC, p_error=1e-5, eta=0.5, p_dark=1e-9)
GAINS = mq.ideal_gain_set(4)
TREE = mq.optimal_tree_layout(4)
MODEL = mq.NoiseModel(sigma_t=0.01, sigma_p=0.01, bs_loss_db=-0.2, seed=1)
T4 = mq.realize_circuit(TREE, MODEL)
DFT3 = mq.dft_multiport(3)
# a verification run small enough for a probe: K = 3 at M = 1e5, 100 trials
SIM_PARAMS = mq.ProtocolParams(k=3, n_bits=1e5 / ECC.c, ecc=ECC, p_error=1e-2, eta=0.5,
                               p_dark=1e-6)
T3 = mq.realize_circuit(mq.optimal_tree_layout(3), MODEL)
SIM_GAINS = mq.gain_set(T3)


def _element_in_layout(**fields):
    """A ``CircuitElement`` is checked where a layout is built from it."""
    return mq.CircuitLayout(3, "custom", (mq.CircuitElement(**fields),))


def valid_calls() -> dict:
    """Callable name -> (callable, valid keyword arguments)."""
    return {
        # bounds
        "ECCParams": (mq.ECCParams, dict(delta=0.78, c=4.0)),
        "ProtocolParams": (mq.ProtocolParams, dict(
            k=4, n_bits=1e6, ecc=ECC, p_error=1e-5, eta=0.5, p_dark=1e-9, epsilon=1e-6)),
        "algorithm_two_user": (mq.algorithm_two_user, dict(
            params=dataclasses.replace(PARAMS, k=2, n_bits=1e4), v=0.98, step=1.0,
            alpha2_cap=1e6, p_error_equal=1e-5, p_error_diff=1e-5)),
        "binomial_inv_cdf": (mq.binomial_inv_cdf, dict(p=0.5, n=1000, q=0.3)),
        "bound_first_detectors": (mq.bound_first_detectors, dict(params=PARAMS, gains=GAINS)),
        "bound_last_detector": (mq.bound_last_detector, dict(params=PARAMS, gains=GAINS)),
        "ideal_alpha2": (mq.ideal_alpha2, dict(k=4, ecc=ECC, p_error=1e-5)),
        "ideal_bound": (mq.ideal_bound, dict(params=PARAMS)),
        "max_users_energy_advantage": (mq.max_users_energy_advantage, dict(
            ecc=ECC, v_last=0.95, p_error=1e-5, mu_dark=1e-9)),
        "naive_asymmetric_probs": (mq.naive_asymmetric_probs, dict(k=4, p_error=1e-5)),
        "naive_protocol": (mq.naive_protocol, dict(
            params=dataclasses.replace(PARAMS, n_bits=1e4), v=0.98, step=1.0,
            p_error_equal=1e-5, p_error_diff=1e-5)),
        "qubit_cost": (mq.qubit_cost, dict(alpha2=10.0, m_pulses=1000, epsilon=1e-6)),
        # circuits
        "CircuitElement": (_element_in_layout, dict(
            kind=mq.circuits.UNBALANCED_BS, ports=(1, 3), t=0.5, phase=None, layer=0)),
        "CircuitLayout": (mq.CircuitLayout, dict(
            dim=3, design="custom", elements=(mq.CircuitElement(mq.circuits.SYMMETRIC_BS, (1, 2)),),
            output_perm=(2, 0, 1))),
        "clements_decompose": (mq.clements_decompose, dict(u=DFT3, tol=1e-10)),
        "compose_layout": (mq.compose_layout, dict(layout=TREE)),
        "dft_multiport": (mq.dft_multiport, dict(k=4)),
        "extendable_layout": (mq.extendable_layout, dict(k=4)),
        "extendable_matrix": (mq.extendable_matrix, dict(k=4)),
        "optimal_tree_layout": (mq.optimal_tree_layout, dict(k=4)),
        "reck_decompose": (mq.reck_decompose, dict(u=DFT3, tol=1e-10)),
        # classical
        "best_k_user": (mq.best_k_user, dict(k=4, n_bits=1e6, p_error=1e-5)),
        "best_two_user": (mq.best_two_user, dict(n_bits=1e6, p_error=1e-5)),
        "claim_c1_check": (mq.claim_c1_check, dict(
            na=1e6, nb=1e6, ma=500.0, mb=500.0, p_error=1e-5)),
        "classical_limit": (mq.classical_limit, dict(k=4, n_bits=1e6, p_error=1e-5)),
        "photonic_limit_photons": (mq.photonic_limit_photons, dict(
            k=4, n_bits=1e6, p_error=1e-5, eta=0.5)),
        # gains
        "GainSet": (mq.GainSet, dict(
            k=4, last_label=4, g_e_first=0.0, g_d_first_min=3.0, g_e_last=4.0,
            g_d_last_max=1.0, g_d_first=np.full(4, 3.0), g_d_last=np.full(4, 1.0))),
        "PhasePattern": (mq.PhasePattern, dict(labels=(1, -1, 1, 1))),
        "batch_gain_set": (mq.batch_gain_set, dict(
            matrices=mq.realize_batch(TREE, MODEL, 2), last_label=1)),
        "find_last_label": (mq.find_last_label, dict(transfer=T4)),
        "gain_set": (mq.gain_set, dict(transfer=T4, last_label=1)),
        "ideal_gain_set": (mq.ideal_gain_set, dict(k=4)),
        "output_photon_numbers": (mq.output_photon_numbers, dict(
            transfer=T4, pattern=(1, -1, 1, 1), mu_in=1.0)),
        "visibilities": (mq.visibilities, dict(gains=GAINS)),
        "worst_case_pattern_scan": (mq.worst_case_pattern_scan, dict(
            transfer=T4, last_label=1, max_l=2, pattern_budget=100)),
        # mcsim
        "SimConfig": (mq.SimConfig, dict(
            trials=100, scenario=mq.WORST_DIFFERENT, strategy=mq.STRATEGY_FIRST,
            params=SIM_PARAMS, transfer=T3, alpha2=40.0, threshold_r=10.0, last_label=1,
            worst_pattern=1)),
        "default_trials": (mq.default_trials, dict(p_error=1e-2)),
        "simulate": (mq.simulate, dict(config=mq.SimConfig(
            trials=100, scenario=mq.ALL_EQUAL, strategy=mq.STRATEGY_LAST, params=SIM_PARAMS,
            transfer=T3, alpha2=40.0, threshold_r=10.0), seed=0)),
        "verify_bound": (mq.verify_bound, dict(
            strategy=mq.STRATEGY_FIRST, params=SIM_PARAMS, gains=SIM_GAINS, transfer=T3,
            trials=100, seed=0, alpha2_scale=1.0, r_scale=1.0)),
        "wilson_upper": (mq.wilson_upper, dict(errors=3, trials=100, z=1.645)),
        # noise
        "NoiseModel": (mq.NoiseModel, dict(sigma_t=0.01, sigma_p=0.01, bs_loss_db=-0.2, seed=0)),
        "realize_batch": (mq.realize_batch, dict(layout=TREE, model=MODEL, n=2, start=0)),
        "realize_circuit": (mq.realize_circuit, dict(layout=TREE, model=MODEL, index=0)),
    }


def _use(result):
    """The first use of a result whose remaining checks happen there."""
    if isinstance(result, mq.CircuitLayout):
        return mq.compose_layout(result)
    if isinstance(result, mq.SimConfig):
        return mq.simulate(result)
    return result


def nonfinite(obj, path="result") -> set:
    """Paths of the non-finite numbers in a result."""
    if obj is None or isinstance(obj, (str, bool, np.bool_, numbers.Integral)):
        return set()
    if isinstance(obj, numbers.Number):
        return set() if cmath.isfinite(obj) else {path}
    if isinstance(obj, np.ndarray):
        return set() if np.isfinite(obj).all() else {path}
    if dataclasses.is_dataclass(obj):
        parts = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    elif isinstance(obj, dict):
        parts = obj
    elif isinstance(obj, (tuple, list)):
        parts = dict(enumerate(obj))
    else:
        raise TypeError(f"no finiteness rule for a {type(obj).__name__} at {path}")
    return set().union(*(nonfinite(v, f"{path}.{k}") for k, v in parts.items()))


def test_every_export_has_a_case():
    exported = {name for name, obj in vars(mq).items()
                if callable(obj) and not name.startswith("_")}
    assert exported == set(valid_calls()) | RESULTS


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise ``TimeoutError`` in the main thread once ``seconds`` have passed:
    no probe may loop in proportion to a bad value, or forever."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def probe(name: str, fn, kwargs: dict, baseline: set, arg: str, label: str) -> str | None:
    """What is wrong with the call with ``arg`` set to ``BAD[label]``, or None."""
    call = f"{name}({arg}={BAD[label]!r})"
    try:
        with time_limit(5.0):
            got = nonfinite(_use(fn(**{**kwargs, arg: BAD[label]})))
        accepted = True
    except MultiqfError:
        got, accepted = set(), False
    except Exception as exc:  # noqa: BLE001 - any other type breaks the contract
        return f"{call} raised {type(exc).__name__}: {exc}"
    if not got <= baseline:
        return f"{call} returned non-finite {sorted(got - baseline)}"
    if accepted and label in REJECTED and (name, arg) not in UNREAD:
        return f"{call} was accepted"
    return None


@pytest.mark.parametrize("name", sorted(valid_calls()))
def test_one_bad_argument_at_a_time(name):
    fn, kwargs = valid_calls()[name]
    baseline = nonfinite(_use(fn(**kwargs)))
    assert baseline <= {"result.dominance_ratio"}
    failures = [problem for arg in kwargs for label in BAD
                if (problem := probe(name, fn, kwargs, baseline, arg, label))]
    assert failures == []


@pytest.mark.parametrize("call, error", [
    # each of these returned a value or raised a raw exception before
    pytest.param(lambda: mq.bound_last_detector(
        dataclasses.replace(PARAMS, k=math.nan), GAINS), ParameterError, id="k=nan-bound"),
    pytest.param(lambda: mq.ProtocolParams(k=4.5, n_bits=1e6, ecc=ECC, p_error=1e-5),
                 ParameterError, id="k=4.5"),
    pytest.param(lambda: mq.classical_limit(math.nan, 1e8, 1e-5), ParameterError,
                 id="classical_limit-k=nan"),
    pytest.param(lambda: mq.qubit_cost(100, math.inf, 0.1), ParameterError,
                 id="qubit_cost-m=inf"),
    pytest.param(lambda: mq.NoiseModel(bs_loss_db=-math.inf), ParameterError,
                 id="bs_loss_db=-inf"),
    pytest.param(lambda: mq.best_k_user(math.nan, 1e8, 1e-5), ParameterError,
                 id="best_k_user-k=nan"),
    pytest.param(lambda: mq.ideal_gain_set(math.nan), InvalidDimensionError,
                 id="ideal_gain_set-nan"),
    pytest.param(lambda: mq.ideal_alpha2(4, 0.5, 1e-5), ParameterError,
                 id="ideal_alpha2-ecc-float"),
    pytest.param(lambda: mq.max_users_energy_advantage(0.5, 0.95, 1e-5, 1e-9), ParameterError,
                 id="max_users-ecc-float"),
    pytest.param(lambda: mq.wilson_upper(math.nan, 1000), ParameterError,
                 id="wilson_upper-nan"),
    pytest.param(lambda: mq.default_trials(0), ParameterError, id="default_trials-0"),
    pytest.param(lambda: mq.algorithm_two_user(
        dataclasses.replace(PARAMS, k=2), True), ParameterError, id="two_user-v=True"),
    pytest.param(lambda: mq.reck_decompose("0.5"), MultiqfError, id="reck-string"),
    pytest.param(lambda: mq.compose_layout(mq.CircuitLayout(
        3, "custom", (), output_perm=True)), LayoutError, id="output_perm=True"),
    pytest.param(lambda: mq.output_photon_numbers(T4, (1, math.nan, 1, 1), 1.0),
                 ParameterError, id="pattern-with-nan"),
    pytest.param(lambda: mq.simulate(mq.SimConfig(
        trials=100, scenario=mq.ALL_EQUAL, strategy=mq.STRATEGY_LAST, params=SIM_PARAMS,
        transfer=np.where(np.eye(3), np.nan, T3), alpha2=40.0, threshold_r=10.0)),
        ParameterError, id="transfer-with-nan"),
    pytest.param(lambda: dataclasses.replace(GAINS, g_d_last=np.full(4, math.nan)),
                 ParameterError, id="gains-with-nan"),
])
def test_named_defects(call, error):
    with pytest.raises(error):
        call()


def test_numpy_scalars_pass_and_bools_do_not():
    assert mq.qubit_cost(np.float64(10.0), np.int64(1000)) == mq.qubit_cost(10.0, 1000)
    assert mq.classical_limit(np.int32(4), np.float32(1e6), 1e-5) == mq.classical_limit(
        4, float(np.float32(1e6)), 1e-5)
    for bad in (True, np.bool_(True)):
        with pytest.raises(ParameterError):
            mq.ProtocolParams(k=4, n_bits=1e6, ecc=ECC, p_error=1e-5, eta=bad)
