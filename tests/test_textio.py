import hashlib
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vspin import (
    FreeEvolutionStep,
    ParseError,
    ProgramError,
    ProgramSyntaxError,
    PulseProgram,
    PulseSpec,
    PulseStep,
    SemanticError,
    SpinParameters,
    TwoFrequencyStep,
    format_density_matrix,
    format_pulse_program,
    parse_angle,
    parse_density_matrix,
    parse_pulse_program,
    textio,
)

SYSTEM = "system omega0=0.1 omegaQ=1 eta=0.5 gamma=1 hrf=0\n"
# One step of each type.
MIXED = PulseProgram(
    params=SpinParameters(0.1, 1.0, 0.5, 2.0, 0.001),
    steps=(
        PulseStep(pulse=PulseSpec(transition=(1, 2), axis="Y", phase=0.25, flip=np.pi)),
        TwoFrequencyStep(
            a=PulseSpec(transition=(1, 3), axis="X", phase=-0.5, flip=1.1),
            b=PulseSpec(transition=(2, 4), axis="X", phase=-0.5, flip=2.2),
        ),
        FreeEvolutionStep(duration=0.125),
    ),
)


class TestAngles:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("pi", np.pi),
            ("pi/2", 1.5707963267948966),
            ("3*pi/4", 3 * np.pi / 4),
            ("-pi", -np.pi),
            ("-pi/2", -np.pi / 2),
            ("2*pi", 2 * np.pi),
            ("0.25", 0.25),
            ("-1e-3", -1e-3),
            ("1.5e2", 150.0),
        ],
    )
    def test_accepted(self, text, value):
        assert parse_angle(text) == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize(
        "text", ["two*pi", "pi/0", "pi*2", "", "1..2", "inf", "nan", "1e308*pi", "pi/1e-320"]
    )
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            parse_angle(text)

    @pytest.mark.parametrize("angle", ["1e308*pi", "pi/1e-320"])
    def test_overflowing_pi_expression_is_positioned(self, angle):
        with pytest.raises(ProgramSyntaxError) as info:
            parse_pulse_program(SYSTEM + f"pulse t=1,2 axis=Y phase={angle} flip=pi\n")
        assert (info.value.line, info.value.column) == (2, 20)
        assert "finite" in str(info.value)


class TestProgramParsing:
    def test_single_pulse(self):
        prog = parse_pulse_program(SYSTEM + "pulse t=1,2 axis=Y phase=0 flip=pi\n")
        assert prog.params == SpinParameters(0.1, 1.0, 0.5, 1.0, 0.0)
        (step,) = prog.steps
        assert step.pulse == PulseSpec(transition=(1, 2), axis="Y", phase=0.0, flip=np.pi)

    def test_pulse2_and_free(self):
        prog = parse_pulse_program(
            SYSTEM
            + "pulse2 a=1,3 b=2,4 axis=X phase=pi/2 flip=pi flip2=pi/2\n"
            + "free dt=1.5\n"
        )
        two, free = prog.steps
        assert two.a.transition == (1, 3)
        assert two.b.transition == (2, 4)
        assert two.a.axis == two.b.axis == "X"
        assert two.b.flip == pytest.approx(np.pi / 2)
        assert free.duration == 1.5

    def test_comments_and_blank_lines(self):
        prog = parse_pulse_program(
            "# a comment\n\n" + SYSTEM + "pulse t=3,4 axis=Y phase=0 flip=pi  # inline\n\n"
        )
        assert len(prog.steps) == 1

    def test_shared_level_semantic_error(self):
        with pytest.raises(SemanticError) as info:
            parse_pulse_program(SYSTEM + "pulse2 a=1,2 b=2,3 axis=Y phase=0 flip=pi flip2=pi\n")
        assert info.value.line == 2

    def test_missing_system_line(self):
        with pytest.raises(SemanticError):
            parse_pulse_program("pulse t=1,2 axis=Y phase=0 flip=pi\n")

    def test_duplicate_system_line(self):
        with pytest.raises(SemanticError):
            parse_pulse_program(SYSTEM + SYSTEM)

    def test_system_not_first(self):
        text = "free dt=1\n" + SYSTEM
        with pytest.raises(SemanticError):
            parse_pulse_program(text)

    def test_unknown_directive_positioned(self):
        with pytest.raises(ProgramSyntaxError) as info:
            parse_pulse_program(SYSTEM + "ramp t=1,2\n")
        assert info.value.line == 2
        assert info.value.column == 1

    def test_bad_value_positioned(self):
        with pytest.raises(ProgramSyntaxError) as info:
            parse_pulse_program(SYSTEM + "pulse t=1,2 axis=Y phase=zero flip=pi\n")
        assert info.value.line == 2
        assert info.value.column == 20  # start of the phase=zero token

    def test_missing_field(self):
        with pytest.raises(ProgramSyntaxError):
            parse_pulse_program(SYSTEM + "pulse t=1,2 axis=Y phase=0\n")

    def test_unknown_field(self):
        with pytest.raises(ProgramSyntaxError):
            parse_pulse_program(SYSTEM + "pulse t=1,2 axis=Y phase=0 flip=pi width=3\n")

    def test_invalid_level_semantic_error(self):
        with pytest.raises(SemanticError):
            parse_pulse_program(SYSTEM + "pulse t=1,5 axis=Y phase=0 flip=pi\n")

    def test_bad_system_parameters(self):
        with pytest.raises(SemanticError):
            parse_pulse_program("system omega0=0.1 omegaQ=1 eta=2 gamma=1 hrf=0\n")

    def test_round_trip(self):
        assert parse_pulse_program(format_pulse_program(MIXED)) == MIXED

    @pytest.mark.parametrize(
        "line,message,column",
        [
            # tabs, and a run of them, are one separator each; columns count characters
            ("\tpulse\tt=1,2\t\taxis=Q phase=0 flip=pi",
             "bad value for axis: axis must be X or Y, got 'Q'", 15),
            ("pulse   t=1,2    axis=Y  phase=0 flip=pi   flip=1", "duplicate field 'flip'", 44),
            # non-ASCII whitespace separates tokens too
            ("pulse\u00a0t=1,2\u00a0\u00a0bogus=1 axis=Y phase=0 flip=pi",
             "unknown field 'bogus' for pulse", 14),
            ("pulse t=1,2 axis\u2003=Y phase=0 flip=pi", "expected key=value, got 'axis'", 13),
            ("pulse\x1ft=1,2 axis=Y phase=0 flip=pi width=1", "unknown field 'width' for pulse", 36),
            # the word's column for an unknown directive and for missing fields;
            # what follows # is no field
            ("  frob t=1,2 # pulse", "unknown directive 'frob'", 3),
            ("\u3000pulse t=1,2 axis=Y phase=0 # flip=pi", "pulse is missing field(s): flip", 2),
            ("pulse t=1,2 axis=Y#Q phase=zero flip=pi", "pulse is missing field(s): phase, flip", 1),
        ],
    )
    def test_columns_count_every_whitespace_character(self, line, message, column):
        with pytest.raises(ProgramSyntaxError) as info:
            parse_pulse_program(SYSTEM + line + "\n")
        assert (info.value.line, info.value.column) == (2, column)
        assert str(info.value) == f"line 2, column {column}: {message}"

    def test_comment_and_whitespace_runs_do_not_change_the_program(self):
        text = SYSTEM + "\t pulse\u00a0 t=1,2\t\taxis=X  phase=pi/2\x1fflip=pi # flip=0 axis=Y\n"
        assert parse_pulse_program(text) == parse_pulse_program(
            SYSTEM + "pulse t=1,2 axis=X phase=pi/2 flip=pi\n"
        )

    @pytest.mark.parametrize(
        "text,error",
        [
            # a syntax error on a line comes before its semantic checks
            (SYSTEM + "system omega0=x omegaQ=1 eta=2 gamma=1 hrf=0\n",
             "ProgramSyntaxError: line 2, column 8: bad value for omega0:"
             " could not convert string to float: 'x'"),
            # a second system line is refused before it is built
            (SYSTEM + "system omega0=0.1 omegaQ=1 eta=2 gamma=1 hrf=0\n",
             "SemanticError: line 2: duplicate system line"),
            (SYSTEM + "free dt=1\n" + SYSTEM, "SemanticError: line 3: duplicate system line"),
            ("free dt=1\nsystem omega0=0.1\n",
             "SemanticError: line 1: missing system line (it must precede all steps)"),
            ("# only a comment\n", "SemanticError: line 1: missing system line"),
            ("system omega0=0.1 omegaQ=1 eta=2 gamma=1 hrf=0\n",
             "SemanticError: line 1: |eta| must be <= 1, got 2.0"),
            (SYSTEM + "pulse2 a=1,2 b=3,4 axis=Y phase=0 flip=pi\n",
             "ProgramSyntaxError: line 2, column 1: pulse2 is missing field(s): flip2"),
            (SYSTEM + "pulse t=1,2 flip=pi axis=Z phase=0 flip=1\n",
             "ProgramSyntaxError: line 2, column 21: bad value for axis:"
             " axis must be X or Y, got 'Z'"),
            (SYSTEM + "pulse t=1,2 axis=Y phase=0 flip=pi flip=1\n",
             "ProgramSyntaxError: line 2, column 36: duplicate field 'flip'"),
            (SYSTEM + "pulse t=1,2 axis=Y phase=0 flip=-1\n",
             "SemanticError: line 2: flip must be finite and >= 0, got -1.0"),
            (SYSTEM + "pulse2 a=1,2 b=2,3 axis=Y phase=0 flip=pi flip2=pi\n",
             "SemanticError: line 2: simultaneous pulses share levels: (1, 2) and (2, 3)"),
        ],
    )
    def test_first_failing_check_wins(self, text, error):
        with pytest.raises(ProgramError) as info:
            parse_pulse_program(text)
        assert f"{type(info.value).__name__}: {info.value}" == error


class TestDensityMatrixFormat:
    def test_header_and_diagonal(self):
        text = format_density_matrix(np.eye(4, dtype=complex) / 4)
        lines = text.splitlines()
        assert lines[0] == "rho 4x4 basis=eigen"
        assert lines[1].split()[0] == "(0.25,0)"
        assert len(lines) == 5

    def test_projector_dump(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[3, 3] = 1.0
        text = format_density_matrix(rho)
        assert text.splitlines()[4].split()[3] == "(1,0)"
        assert text.count("(1,0)") == 1

    def test_non_4x4_refused(self):
        with pytest.raises(ValueError, match=r"^density matrix must be 4x4, got \(3, 3\)$"):
            format_density_matrix(np.eye(3) / 3)

    def test_round_trip_bit_exact(self, rng):
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            again = parse_density_matrix(format_density_matrix(rho))
            assert np.array_equal(again, rho)

    def test_comments_skipped(self):
        rho = np.eye(4, dtype=complex) / 4
        text = "# alpha=1\n" + format_density_matrix(rho) + "# trailing\n"
        assert np.array_equal(parse_density_matrix(text), rho)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "rho 3x3 basis=eigen\n(1,0)\n",
            "rho 4x4 basis=eigen\n(1,0) (0,0) (0,0)\n" * 2,
            "rho 4x4 basis=eigen\n" + "(1,0) (0,0) (0,0) (0,0)\n" * 3,
            "rho 4x4 basis=eigen\n" + "(x,0) (0,0) (0,0) (0,0)\n" * 4,
            "rho 4x4 basis=eigen\n" + "(1,0) (0,0) (0,0) (0,0) junk\n" * 4,
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_density_matrix(text)

    @pytest.mark.parametrize(
        "rows,message",
        [
            # a non-finite entry in one row beats a malformed entry, or row, after it
            ({2: "(0.25,0) (0,0) (nan,0) (0,0)", 3: "(0.25,0) (x,0) (0,0) (0,0)"},
             "line 4: entry (nan,0) is not finite"),
            ({1: "(0.25,0) (0,inf) (0,0) (0,0)", 4: "(0.25,0) (0,0) (0,0)"},
             "line 3: entry (0,inf) is not finite"),
            # and a malformed entry beats a non-finite one in a later row
            ({1: "(0.25,0) (0,0) (0,0) (1_0_,0)", 2: "(nan,0) (0,0) (0,0) (0,0)"},
             "line 3: bad entry (1_0_,0)"),
            # within a row, the first failing entry is the one named
            ({3: "(0.25,0) (-inf,0) (x,0) (0,0)"}, "line 5: entry (-inf,0) is not finite"),
            ({3: "(0.25,0) (x,0) (inf,0) (0,0)"}, "line 5: bad entry (x,0)"),
            ({3: "(0.25,0) (0,0) (0,0) (1e999,y)"}, "line 5: bad entry (1e999,y)"),
            ({3: "(0.25,0) (0,0) (nan,1e999) (0,z)"}, "line 5: entry (nan,1e999) is not finite"),
        ],
    )
    def test_first_failing_entry_is_named(self, rows, message):
        lines = ["(0.25,0) (0,0) (0,0) (0,0)"] * 4
        for k, row in rows.items():
            lines[k - 1] = row
        text = "# comment\nrho 4x4 basis=eigen\n" + "\n".join(lines) + "\n"
        with pytest.raises(ParseError) as info:
            parse_density_matrix(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("entry", ["(nan,0)", "(0,inf)", "(-inf,0)", "(1e999,0)"])
    def test_non_finite_entry_names_its_line(self, entry):
        rows = ["(0.25,0) (0,0) (0,0) (0,0)"] * 4
        rows[2] = rows[2].replace("(0,0)", entry, 1)
        with pytest.raises(ParseError, match=rf"^line 4: entry {re.escape(entry)} is not finite$"):
            parse_density_matrix("rho 4x4 basis=eigen\n" + "\n".join(rows) + "\n")


# Every binary64 value a formatted matrix can hold, weighted toward the edges.
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)
MATRICES = st.lists(FINITE, min_size=32, max_size=32).map(
    lambda values: np.array(values).view(complex).reshape(4, 4)
)


PAIRS = [(m, n) for m in range(1, 5) for n in range(m + 1, 5)]
ANGLES = st.floats(allow_nan=False, allow_infinity=False)
FLIPS = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def _two_frequency_steps(draw):
    a = draw(st.sampled_from(PAIRS))
    b = draw(st.sampled_from([q for q in PAIRS if not set(q) & set(a)]))
    axis, phase = draw(st.sampled_from("XY")), draw(ANGLES)
    return TwoFrequencyStep(
        a=PulseSpec(transition=a, axis=axis, phase=phase, flip=draw(FLIPS)),
        b=PulseSpec(transition=b, axis=axis, phase=phase, flip=draw(FLIPS)),
    )


STEPS = st.one_of(
    st.builds(
        PulseStep,
        pulse=st.builds(PulseSpec, transition=st.sampled_from(PAIRS), axis=st.sampled_from("XY"),
                        phase=ANGLES, flip=FLIPS),
    ),
    _two_frequency_steps(),
    st.builds(FreeEvolutionStep, duration=ANGLES),
)
PROGRAMS = st.builds(
    PulseProgram,
    params=st.builds(
        SpinParameters,
        omega0=st.floats(min_value=0.0, allow_infinity=False),
        omegaQ=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        eta=st.floats(-1.0, 1.0),
        gamma=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        h_rf=st.floats(min_value=0.0, allow_infinity=False),
    ),
    steps=st.lists(STEPS, max_size=6),
)

class TestRoundTrips:
    @settings(max_examples=100, deadline=None)
    @given(MATRICES)
    def test_density_matrix_is_bit_exact(self, rho):
        assert parse_density_matrix(format_density_matrix(rho)).tobytes() == rho.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(PROGRAMS)
    def test_program(self, prog):
        assert parse_pulse_program(format_pulse_program(prog)) == prog


# Text edits the fuzzers splice in: the format's own characters, every kind
# of whitespace and line break str.splitlines knows, non-finite spellings,
# and tokens float() accepts that the format never writes.
EDITS = [
    "", " ", "  ", "\t", "\n", "\r\n", "\x0b", "\x1c", "\x85", "\u00a0", "\u2028", "#",
    "(", ")", ",", "=", "*", "/", "(0,0)", ")(", "x", "e", "E", "-", "+", ".", "0", "1", "_",
    "nan", "inf", "-inf", "Infinity", "1e400", "1e-400", "\u0663", "pi", "rho", "4x4",
]

# Outcomes of the 5,000 seed-12 program mutants, recorded before the parser
# and formatter were folded into one directive table; re-pinned when an m,n
# field that is not two integers began to name the <m>,<n> form, which changed
# the message of 94 outcomes and nothing else.
PINNED_KINDS = {"ProgramSyntaxError": 4856, "SemanticError": 7, "PulseProgram": 137}
PINNED_DIGEST = "5f0fc3d93c27b4bfa36ecb4727de8b08e38874fe669fa1eb82b7e0461fcdc489"


def _mutants(texts, count, seed):
    """``count`` texts, each one of ``texts`` with one to four random edits."""
    rng = random.Random(seed)
    for _ in range(count):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 4)):
            at = rng.randint(0, len(text))
            text = text[:at] + rng.choice(EDITS) + text[at + rng.randint(0, 3):]
        yield text


_REF_ENTRY = re.compile(r"\(([^(),\s]+),([^(),\s]+)\)")
_REF_HEADER = re.compile(r"^rho 4x4 basis=eigen$")


def _reference_parse_density_matrix(text):
    """The findall/sub density-matrix parser the whole-row match replaced.

    Kept as the reference: a row is accepted when findall sees exactly four
    entries and nothing but whitespace is left once they are removed.  The
    additions are the finiteness rule, checked after each entry parses, and
    the one header the format has, ``basis=eigen``.
    """
    lines = []
    for line_no, raw in enumerate(str(text).splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((line_no, stripped))
    if not lines:
        raise ParseError("empty density-matrix text")
    header_no, header = lines[0]
    if not _REF_HEADER.match(header):
        raise ParseError(f"line {header_no}: expected 'rho 4x4 basis=eigen', got {header!r}")
    if len(lines) != 5:
        raise ParseError(f"expected 4 matrix rows, got {len(lines) - 1}")
    out = np.zeros((4, 4), dtype=complex)
    for i, (line_no, row) in enumerate(lines[1:]):
        entries = _REF_ENTRY.findall(row)
        if len(entries) != 4 or "".join(_REF_ENTRY.sub("", row).split()):
            raise ParseError(f"line {line_no}: expected 4 '(re,im)' entries, got {row!r}")
        for j, (re_s, im_s) in enumerate(entries):
            try:
                out[i, j] = complex(float(re_s), float(im_s))
            except ValueError:
                raise ParseError(f"line {line_no}: bad entry ({re_s},{im_s})") from None
            if not np.isfinite(out[i, j]):
                raise ParseError(f"line {line_no}: entry ({re_s},{im_s}) is not finite")
    return out


def _outcome(parse, text):
    try:
        return parse(text).tobytes()
    except ParseError as exc:
        return str(exc)


class TestFuzz:
    def test_density_matrix_matches_the_reference(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        edges = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 1.0, 0.25])
        matrices = [a @ a.conj().T / np.trace(a @ a.conj().T).real, np.eye(4) / 4,
                    np.tile(edges, 4).view(complex).reshape(4, 4)]
        texts = [format_density_matrix(rho) for rho in matrices]
        texts.append("# comment\n\n" + texts[0] + "# trailing\n")
        # anything but a ParseError escapes and fails the test
        for text in _mutants(texts, 20_000, seed=11):
            assert _outcome(parse_density_matrix, text) == _outcome(
                _reference_parse_density_matrix, text
            ), repr(text)

    def test_program_raises_only_program_errors(self):
        text = format_pulse_program(MIXED)
        texts = [text, text.replace("phase=0.25", "phase=pi/4").replace("flip=1.1", "flip=3*pi/4")]
        for mutant in _mutants(texts, 5_000, seed=12):
            try:
                parse_pulse_program(mutant)
            except ProgramError:
                pass

    def test_program_diagnostics_are_pinned(self):
        # Every outcome of the 5,000 mutants above, the program or the
        # diagnostic (class, message, line, column), hashed: a parser
        # refactor must keep each one, down to which check fires first.
        text = format_pulse_program(MIXED)
        texts = [text, text.replace("phase=0.25", "phase=pi/4").replace("flip=1.1", "flip=3*pi/4")]
        kinds, outcomes = Counter(), []
        for mutant in _mutants(texts, 5_000, seed=12):
            try:
                outcome = repr(parse_pulse_program(mutant))
                kinds["PulseProgram"] += 1
            except ProgramError as exc:
                outcome = repr((type(exc).__name__, str(exc), exc.line, exc.column))
                kinds[type(exc).__name__] += 1
            outcomes.append(outcome)
        assert kinds == PINNED_KINDS
        assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == PINNED_DIGEST


def test_docstring_grammar_matches_the_directive_table():
    documented = {}
    for line in textio.__doc__.splitlines():
        words = line.split()
        if line.startswith("    ") and words[0] in ("system", "pulse", "pulse2", "free"):
            documented[words[0]] = [token.split("=")[0] for token in words[1:]]
    assert documented == {
        word: [key for key, _, _ in d.fields] for word, d in textio._DIRECTIVES.items()
    }
