"""Line-oriented text formats: pulse programs and density matrices.

Pulse-program grammar (one directive per line, ``#`` starts a comment):

    system omega0=<f> omegaQ=<f> eta=<f> gamma=<f> hrf=<f>
    pulse t=<m>,<n> axis=<X|Y> phase=<angle> flip=<angle>
    pulse2 a=<m>,<n> b=<p>,<q> axis=<X|Y> phase=<angle> flip=<angle> flip2=<angle>
    free dt=<f>

Exactly one ``system`` line, and it must come first.  ``<angle>`` accepts a
plain float or a pi expression (``pi``, ``pi/2``, ``3*pi/4``, ``-pi``), and
either must come out finite.  Every malformed line yields one positioned
diagnostic; nothing is skipped silently.

Density matrices print as a ``rho 4x4 basis=eigen`` header followed by four
rows of ``(re,im)`` entries with 17 significant digits, which round-trips
binary64 values bit-exactly.  Every entry must be finite: ``nan``, ``inf``
or an overflowing ``1e999`` is a ParseError naming its line, as is any
other malformed entry (the CLI exits 2 on either kind of text).
"""

import math
import re

import numpy as np

from .errors import (
    ParseError,
    ProgramSyntaxError,
    SemanticError,
    SharedLevel,
)
from .pulse_engine import (
    FreeEvolutionStep,
    PulseProgram,
    PulseSpec,
    PulseStep,
    TwoFrequencyStep,
    _normalize_axis,
)
from .spin_system import SpinParameters

__all__ = [
    "parse_angle",
    "format_number",
    "parse_pulse_program",
    "format_pulse_program",
    "format_density_matrix",
    "parse_density_matrix",
]

_PI_EXPR = re.compile(
    r"""^(?P<sign>[+-])?
        (?:(?P<coef>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\*)?
        pi
        (?:/(?P<den>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?))?$""",
    re.VERBOSE,
)


def _pi_expression(token):
    """Radians of a pi expression; ValueError if the token is not one."""
    match = _PI_EXPR.match(token)
    if not match:
        raise ValueError(f"not a number or pi expression: {token!r}")
    value = math.pi
    if match.group("coef"):
        value *= float(match.group("coef"))
    if match.group("den"):
        den = float(match.group("den"))
        if den == 0.0:
            raise ValueError("zero denominator in pi expression")
        value /= den
    if match.group("sign") == "-":
        value = -value
    return value


def parse_angle(text):
    """Float or pi expression -> radians; both must come out finite."""
    token = str(text).strip()
    try:
        value = float(token)
    except ValueError:
        value = _pi_expression(token)
    if not math.isfinite(value):
        raise ValueError(f"angle must be finite: {token!r}")
    return value


def format_number(x):
    """17 significant digits; round-trip safe for binary64."""
    return f"{float(x):.17g}"


def _parse_float(token):
    value = float(token)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_pair(token):
    parts = token.split(",")
    if len(parts) != 2:
        raise ValueError("expected <m>,<n>")
    return int(parts[0]), int(parts[1])


_DIRECTIVE_FIELDS = {
    "system": ("omega0", "omegaQ", "eta", "gamma", "hrf"),
    "pulse": ("t", "axis", "phase", "flip"),
    "pulse2": ("a", "b", "axis", "phase", "flip", "flip2"),
    "free": ("dt",),
}

_FIELD_PARSERS = {
    "omega0": _parse_float,
    "omegaQ": _parse_float,
    "eta": _parse_float,
    "gamma": _parse_float,
    "hrf": _parse_float,
    "t": _parse_pair,
    "a": _parse_pair,
    "b": _parse_pair,
    "axis": _normalize_axis,
    "phase": parse_angle,
    "flip": parse_angle,
    "flip2": parse_angle,
    "dt": _parse_float,
}


_TOKEN = re.compile(r"\S+")


def _tokenize(line):
    """[(token, column)] with 1-based columns of each whitespace-split token."""
    return [(match.group(0), match.start() + 1) for match in _TOKEN.finditer(line)]


def _parse_directive(line, line_no):
    tokens = _tokenize(line)
    word, col = tokens[0]
    if word not in _DIRECTIVE_FIELDS:
        raise ProgramSyntaxError(
            f"unknown directive {word!r}", line=line_no, column=col
        )
    expected = _DIRECTIVE_FIELDS[word]
    values = {}
    for token, tcol in tokens[1:]:
        if "=" not in token:
            raise ProgramSyntaxError(
                f"expected key=value, got {token!r}", line=line_no, column=tcol
            )
        key, _, raw = token.partition("=")
        if key not in expected:
            raise ProgramSyntaxError(
                f"unknown field {key!r} for {word}", line=line_no, column=tcol
            )
        if key in values:
            raise ProgramSyntaxError(
                f"duplicate field {key!r}", line=line_no, column=tcol
            )
        try:
            values[key] = _FIELD_PARSERS[key](raw)
        except ValueError as exc:
            raise ProgramSyntaxError(
                f"bad value for {key}: {exc}", line=line_no, column=tcol
            ) from None
    missing = [k for k in expected if k not in values]
    if missing:
        raise ProgramSyntaxError(
            f"{word} is missing field(s): {', '.join(missing)}", line=line_no, column=col
        )
    return word, values


def parse_pulse_program(text) -> PulseProgram:
    """Parse program text into a PulseProgram.

    Raises ProgramSyntaxError (with line/column) for grammar violations and
    SemanticError for structural ones (missing or duplicate system line,
    shared levels in pulse2, invalid level indices).
    """
    params = None
    steps = []
    for line_no, raw_line in enumerate(str(text).splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        word, values = _parse_directive(line, line_no)
        if word == "system":
            if params is not None:
                raise SemanticError("duplicate system line", line=line_no)
            if steps:
                raise SemanticError("system line must come first", line=line_no)
            try:
                params = SpinParameters(
                    omega0=values["omega0"],
                    omegaQ=values["omegaQ"],
                    eta=values["eta"],
                    gamma=values["gamma"],
                    h_rf=values["hrf"],
                )
            except ValueError as exc:
                raise SemanticError(str(exc), line=line_no) from None
            continue
        if params is None:
            raise SemanticError(
                "missing system line (it must precede all steps)", line=line_no
            )
        try:
            if word == "pulse":
                steps.append(
                    PulseStep(
                        pulse=PulseSpec(
                            transition=values["t"],
                            axis=values["axis"],
                            phase=values["phase"],
                            flip=values["flip"],
                        )
                    )
                )
            elif word == "pulse2":
                steps.append(
                    TwoFrequencyStep(
                        a=PulseSpec(
                            transition=values["a"],
                            axis=values["axis"],
                            phase=values["phase"],
                            flip=values["flip"],
                        ),
                        b=PulseSpec(
                            transition=values["b"],
                            axis=values["axis"],
                            phase=values["phase"],
                            flip=values["flip2"],
                        ),
                    )
                )
            elif word == "free":
                steps.append(FreeEvolutionStep(duration=values["dt"]))
        except (SharedLevel, ValueError) as exc:
            raise SemanticError(str(exc), line=line_no) from None
    if params is None:
        raise SemanticError("missing system line", line=1)
    return PulseProgram(params=params, steps=tuple(steps))


def format_pulse_program(prog: PulseProgram) -> str:
    """Serialize a program back to the line format."""
    p = prog.params
    lines = [
        "system "
        f"omega0={format_number(p.omega0)} omegaQ={format_number(p.omegaQ)} "
        f"eta={format_number(p.eta)} gamma={format_number(p.gamma)} "
        f"hrf={format_number(p.h_rf)}"
    ]
    for step in prog.steps:
        if isinstance(step, PulseStep):
            s = step.pulse
            lines.append(
                f"pulse t={s.transition[0]},{s.transition[1]} axis={s.axis} "
                f"phase={format_number(s.phase)} flip={format_number(s.flip)}"
            )
        elif isinstance(step, TwoFrequencyStep):
            lines.append(
                f"pulse2 a={step.a.transition[0]},{step.a.transition[1]} "
                f"b={step.b.transition[0]},{step.b.transition[1]} axis={step.a.axis} "
                f"phase={format_number(step.a.phase)} flip={format_number(step.a.flip)} "
                f"flip2={format_number(step.b.flip)}"
            )
        elif isinstance(step, FreeEvolutionStep):
            lines.append(f"free dt={format_number(step.duration)}")
    return "\n".join(lines) + "\n"


_ENTRY = r"\(([^(),\s]+),([^(),\s]+)\)"
# A row is four (re,im) entries with only whitespace between them.
_ROW = re.compile(r"\s*".join([_ENTRY] * 4))
_HEADER = re.compile(r"^rho 4x4 basis=(\w+)$")
# Four rows of four entries, the whole matrix in one %-format.
_MATRIX = "\n".join([" ".join(["(%.17g,%.17g)"] * 4)] * 4)


def format_density_matrix(rho, basis="eigen") -> str:
    """Header plus four rows of (re,im) entries at 17 significant digits."""
    r = np.asarray(rho, dtype=complex)
    if r.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got {r.shape}")
    return f"rho 4x4 basis={basis}\n" + _MATRIX % tuple(r.ravel().view(float).tolist()) + "\n"


def parse_density_matrix(text) -> np.ndarray:
    """Inverse of format_density_matrix; skips comment and blank lines."""
    lines = []
    for line_no, raw in enumerate(str(text).splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((line_no, stripped))
    if not lines:
        raise ParseError("empty density-matrix text")
    header_no, header = lines[0]
    if not _HEADER.match(header):
        raise ParseError(f"line {header_no}: expected 'rho 4x4 basis=...', got {header!r}")
    if len(lines) != 5:
        raise ParseError(f"expected 4 matrix rows, got {len(lines) - 1}")
    values = []
    for line_no, row in lines[1:]:
        match = _ROW.fullmatch(row)
        if match is None:
            raise ParseError(f"line {line_no}: expected 4 '(re,im)' entries, got {row!r}")
        fields = match.groups()
        for re_s, im_s in zip(fields[0::2], fields[1::2]):
            try:
                re_v, im_v = float(re_s), float(im_s)
            except ValueError:
                raise ParseError(f"line {line_no}: bad entry ({re_s},{im_s})") from None
            if not (math.isfinite(re_v) and math.isfinite(im_v)):
                raise ParseError(f"line {line_no}: entry ({re_s},{im_s}) is not finite")
            values += (re_v, im_v)
    return np.array(values).view(complex).reshape(4, 4)
