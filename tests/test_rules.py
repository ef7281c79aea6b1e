"""Each physics rule gives the same verdict through every public entry point.

Over random resolved spins, all six level pairs and both RF axes:

* drivability - flip_angle, single_frequency_propagator (h_rf > 0),
  program_propagator(include_free_evolution=True) and drive_for_pulse
  raise ZeroMatrixElement on exactly the pairs whose |<I_axis>| is below
  1e-14, and selection_rules marks exactly the other pairs as connected,
  down to |eta| = 1e-13 where the mixed lines' elements are ~eta;
* nearest line - TransitionTable.nearest equals a brute-force minimum;
* selectivity - SelectivityViolation is raised exactly when the nearest
  other line is within 1e3 Rabi rates;
* realized duration - program_propagator(include_free_evolution=True)
  and drive_for_pulse refuse h_rf = 0 with one ValueError, before they
  look at drivability, and a pulse with no finite duration with another;
* labels - every function that takes a level, a line or a spin component
  accepts the same inputs, with the verdict of the label they equal, and
  refuses the rest with the rule's own message.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vspin import (
    DegenerateSpectrum,
    IndexOutOfRange,
    Projector,
    PulseProgram,
    PulseSpec,
    PulseStep,
    SelectivityViolation,
    SpinParameters,
    TwoFrequencyStep,
    ZeroMatrixElement,
    closed_form_eigensystem,
    drive_for_pulse,
    flip_angle,
    level_to_bits,
    program_propagator,
    projector,
    rwa_infidelity,
    selection_rules,
    single_frequency_propagator,
    transition_matrix_element,
    transition_table,
)

PAIRS = [(m, n) for m in range(1, 5) for n in range(m + 1, 5)]
AXES = ("X", "Y")

spins = st.builds(
    SpinParameters,
    omega0=st.floats(0.0, 2.0),
    omegaQ=st.floats(0.5, 2.0),
    eta=st.floats(-1.0, 1.0),
    gamma=st.floats(0.5, 2.0),
    h_rf=st.floats(-9.0, -1.0).map(lambda x: 10.0**x),
)

# as ``spins``, with |eta| log-uniform from 1e-13 to 1 and either sign
tiny_eta_spins = st.builds(
    replace,
    spins,
    eta=st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-13.0, 0.0)).map(
        lambda s: s[0] * 10.0 ** s[1]
    ),
)


def _resolved(params):
    try:
        e = closed_form_eigensystem(params)
    except DegenerateSpectrum:
        e = None
    assume(e is not None and e.regime_ok)
    return e


def _raises_zero_element(call):
    try:
        call()
    except ZeroMatrixElement:
        return True
    except SelectivityViolation:
        pass
    return False


@settings(max_examples=60, deadline=None)
@given(params=spins)
def test_drivability_verdict_is_shared(params):
    e = _resolved(params)
    for axis in AXES:
        for pair in PAIRS:
            expected = abs(transition_matrix_element(e, pair, axis)) < 1e-14
            program = PulseProgram(params, (PulseStep(PulseSpec(pair, axis)),))
            calls = {
                "flip_angle": lambda: flip_angle(params, e, pair, axis, 1.0),
                "single_frequency_propagator": lambda: single_frequency_propagator(
                    e, pair, axis, params=params
                ),
                "program_propagator": lambda: program_propagator(
                    program, e, include_free_evolution=True
                ),
                "drive_for_pulse": lambda: drive_for_pulse(params, e, pair, axis),
            }
            for name, call in calls.items():
                assert _raises_zero_element(call) == expected, (name, pair, axis)


@settings(max_examples=60, deadline=None)
@given(params=tiny_eta_spins)
# |<I_X>| on (1,2) is 5.2e-13 here: drivable, and so connected
@example(params=SpinParameters(0.2, 1.0, 1e-12, h_rf=1e-5))
@example(params=SpinParameters(0.2, 1.0, -1e-12, h_rf=1e-5))
def test_selection_rules_share_the_drivability_verdict(params):
    e = _resolved(params)
    for axis in AXES:
        rules = selection_rules(e, axis)
        for pair in PAIRS:
            refused = _raises_zero_element(lambda: flip_angle(params, e, pair, axis, 1.0))
            assert rules.allowed(*pair) == (not refused), (pair, axis)


@settings(max_examples=60, deadline=None)
@given(params=spins)
def test_nearest_is_brute_force_minimum(params):
    table = transition_table(_resolved(params))
    for m, n in PAIRS:
        omega = table.frequency(m, n)
        brute = min(abs(omega - w) for p, q, w in table.entries if (p, q) != (m, n))
        gap, other = table.nearest(m, n)
        assert gap == brute
        assert other != (m, n)
        assert abs(omega - table.frequency(*other)) == gap
        assert table.nearest(n, m) == (gap, other)


@settings(max_examples=60, deadline=None)
@given(params=spins)
def test_selectivity_verdict_matches_rule(params):
    e = _resolved(params)
    table = transition_table(e)
    for axis in AXES:
        for m, n in PAIRS:
            element = abs(transition_matrix_element(e, (m, n), axis))
            if element < 1e-14:
                continue
            rabi = params.gamma * params.h_rf * element
            gap = min(
                abs(table.frequency(m, n) - w) for p, q, w in table.entries if (p, q) != (m, n)
            )
            try:
                single_frequency_propagator(e, (m, n), axis, params=params)
                raised = False
            except SelectivityViolation:
                raised = True
            assert raised == (gap <= 1e3 * rabi), ((m, n), axis, gap, rabi)


@pytest.mark.parametrize("pair", [(2, 3), (1, 4)])
def test_undrivable_message_is_shared(eigen, pair):
    params = SpinParameters(0.1, 1.0, 0.5, h_rf=1e-6)
    program = PulseProgram(params, (PulseStep(PulseSpec(pair)),))
    messages = set()
    for call in (
        lambda: flip_angle(params, eigen, pair, "y", 1.0),
        lambda: single_frequency_propagator(eigen, pair, "Y", params=params),
        lambda: program_propagator(program, eigen, include_free_evolution=True),
        lambda: drive_for_pulse(params, eigen, pair[::-1], "Y"),
    ):
        with pytest.raises(ZeroMatrixElement) as info:
            call()
        messages.add(str(info.value))
    assert len(messages) == 1


@pytest.mark.parametrize("pair", [(1, 2), (2, 3)])
def test_realized_duration_needs_h_rf(eigen, pair):
    # (2, 3) is undrivable: h_rf is checked first on every path
    params = SpinParameters(0.1, 1.0, 0.5, h_rf=0.0)
    single = PulseProgram(params, (PulseStep(PulseSpec(pair)),))
    rest = tuple(sorted({1, 2, 3, 4} - set(pair)))
    double = PulseProgram(params, (TwoFrequencyStep(PulseSpec(pair), PulseSpec(rest)),))
    messages = set()
    for call in (
        lambda: program_propagator(single, eigen, include_free_evolution=True),
        lambda: program_propagator(double, eigen, include_free_evolution=True),
        lambda: drive_for_pulse(params, eigen, pair, "Y"),
    ):
        with pytest.raises(ValueError) as info:
            call()
        messages.add(str(info.value))
    assert messages == {"h_rf must be > 0 to realize a pulse"}


def test_unrealizable_pulse_message_is_shared(eigen):
    # gamma * h_rf = 1e-330 underflows to zero: the flip needs an infinite duration
    params = SpinParameters(0.1, 1.0, 0.5, gamma=1e-30, h_rf=1e-300)
    single = PulseProgram(params, (PulseStep(PulseSpec((1, 2))),))
    double = PulseProgram(params, (TwoFrequencyStep(PulseSpec((1, 2)), PulseSpec((3, 4))),))
    messages = set()
    for call in (
        lambda: program_propagator(single, eigen, include_free_evolution=True),
        lambda: program_propagator(double, eigen, include_free_evolution=True),
        lambda: drive_for_pulse(params, eigen, (2, 1), "y"),
    ):
        with pytest.raises(ValueError) as info:
            call()
        messages.add(str(info.value))
    assert messages == {"pulse on (1, 2) is unrealizable: drive amplitude 0, flip 3.14159"}


# (input, the level it names or None): the inputs every label entry point is asked about
LABEL_INPUTS = [
    (1, 1), (2, 2), (3, 3), (4, 4), (np.int64(2), 2), (2.0, 2), (True, 1),
    (0, None), (5, None), (-1, None), (1.5, None), ("1", None), (None, None),
    ((1, 2, 3), None), ("12", None), ([2, 1], None),
]
DRIVEN = SpinParameters(0.1, 1.0, 0.5, h_rf=1e-6)


def _outcome(call, *args):
    """What a call gives: ("value", its result) or (exception type, message)."""
    try:
        return "value", call(*args)
    except (ValueError, ZeroMatrixElement, SelectivityViolation) as exc:
        return type(exc), str(exc)


def _fingerprint(system):
    (drive,) = system.drives
    return (system.duration, system.h0.tobytes(), drive.operator.tobytes(),
            drive.amplitude, drive.frequency, drive.phase)


LEVEL_CALLS = {
    "EigenSystem.energy": lambda e, m: e.energy(m),
    "EigenSystem.state": lambda e, m: e.state(m).tobytes(),
    "Projector(m, 1)": lambda e, m: (p := Projector(m, 1), type(p.m)),
    "Projector(1, m)": lambda e, m: (p := Projector(1, m), type(p.n)),
    "projector(m, 3)": lambda e, m: (p := projector(m, 3), type(p.m)),
    "projector(3, m)": lambda e, m: (p := projector(3, m), type(p.n)),
    "SelectionRules.allowed(m, 2)": lambda e, m: selection_rules(e, "Y").allowed(m, 2),
    "SelectionRules.allowed(2, m)": lambda e, m: selection_rules(e, "Y").allowed(2, m),
    "level_to_bits": lambda e, m: level_to_bits(m),
}


@pytest.mark.parametrize("name", LEVEL_CALLS)
def test_level_verdict_is_shared(eigen, name):
    call = LEVEL_CALLS[name]
    for given, level in LABEL_INPUTS:
        if level is None:
            with pytest.raises(IndexOutOfRange) as info:
                call(eigen, given)
            assert str(info.value) == f"level index must be in 1..4, got {given!r}", (name, given)
        else:
            assert _outcome(call, eigen, given) == _outcome(call, eigen, level), (name, given)


# a line passed as one object, and as its two levels
LINE_CALLS = {
    "PulseSpec": lambda e, t: (PulseSpec(t).transition, tuple(map(type, PulseSpec(t).transition))),
    "transition_matrix_element": lambda e, t: transition_matrix_element(e, t, "X"),
    "single_frequency_propagator": lambda e, t: single_frequency_propagator(
        e, t, "Y", 0.3, 1.1, DRIVEN).tobytes(),
    "drive_for_pulse": lambda e, t: _fingerprint(drive_for_pulse(DRIVEN, e, t, "Y", 0.3, 1.1)),
    "rwa_infidelity": lambda e, t: rwa_infidelity(DRIVEN, e, t, 1e-2),
}
PAIR_CALLS = {
    "TransitionTable.frequency": lambda e, t: e.transitions.frequency(*t),
    "TransitionTable.nearest": lambda e, t: e.transitions.nearest(*t),
}
# (given, the line it names or None): each input as a whole line, where
# only the list [2, 1] names one, and as the first level of a line to level 4
WHOLE_LINES = [(given, (1, 2) if isinstance(given, list) else None) for given, _ in LABEL_INPUTS]
LINES_TO_4 = [((given, 4), (level, 4) if level in (1, 2, 3) else None) for given, level in LABEL_INPUTS]


@pytest.mark.parametrize("name", [*LINE_CALLS, *PAIR_CALLS])
def test_line_verdict_is_shared(eigen, name):
    call = LINE_CALLS.get(name) or PAIR_CALLS[name]
    for given, line in LINES_TO_4 if name in PAIR_CALLS else WHOLE_LINES + LINES_TO_4:
        if line is None:
            with pytest.raises(ValueError) as info:
                call(eigen, given)
            message = f"transition must be a pair of distinct levels in 1..4, got {given}"
            assert str(info.value) == message, (name, given)
        else:
            assert _outcome(call, eigen, given) == _outcome(call, eigen, line), (name, given)
            assert _outcome(call, eigen, given) == _outcome(call, eigen, line[::-1]), (name, given)


AXIS_INPUTS = [("X", "X"), ("y", "Y"), ("Z", "Z"), ("z", "Z"), ("Q", None), ("XY", None), ("", None),
               (" x", None), *((given, None) for given, _ in LABEL_INPUTS)]


@pytest.mark.parametrize("name", ["axis_operator", "selection_rules"])
def test_axis_verdict_is_shared(eigen, name):
    def call(e, axis):
        if name == "axis_operator":
            return e.axis_operator(axis).tobytes()
        rules = selection_rules(e, axis)
        return rules.elements.tobytes(), rules.mask.tobytes()

    for given, axis in AXIS_INPUTS:
        if axis is None:
            with pytest.raises(ValueError) as info:
                call(eigen, given)
            assert str(info.value) == f"axis must be X, Y or Z, got {given!r}", (name, given)
        else:
            assert _outcome(call, eigen, given) == _outcome(call, eigen, axis), (name, given)
