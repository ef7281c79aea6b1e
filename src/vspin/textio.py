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

The ``_DIRECTIVES`` table states this grammar once for the parser and the
formatter: per directive word its fields (key, parse, format), the object
a line builds and how the fields read back off it, so a new directive is
one new entry.  A test checks the lines above against the table.

Density matrices print as the header ``rho 4x4 basis=eigen`` (entries are
always eigenbasis amplitudes) and four rows of ``(re,im)`` entries with 17
significant digits, which round-trips binary64 values bit-exactly.  Any
other header, a non-finite entry (``nan``, ``inf``, an overflowing
``1e999``) or any other malformed entry is a ParseError naming its line
(the CLI exits 2).
"""

import math
import re
from typing import Callable, NamedTuple

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


# 17 significant digits round-trip binary64 values bit-exactly.
_NUMBER = "%.17g"


def format_number(x):
    """17 significant digits; round-trip safe for binary64."""
    return _NUMBER % float(x)


def _parse_float(token):
    value = float(token)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_pair(token):
    parts = token.split(",")
    if len(parts) != 2:
        raise ValueError("expected <m>,<n>")
    pair = []
    for part in parts:
        try:
            pair.append(int(part))
        except ValueError:
            raise ValueError(f"expected <m>,<n>, not an integer: {part!r}") from None
    return tuple(pair)


class _Directive(NamedTuple):
    kind: type  # the object a line stands for
    fields: tuple  # (key, parse, %-format of the value) in written order
    build: Callable  # field values in order -> the object
    read: Callable  # the object -> the formats' arguments in order


_FLOAT = (_parse_float, _NUMBER)
_ANGLE = (parse_angle, _NUMBER)
_PAIR = (_parse_pair, "%d,%d")
_AXIS = (_normalize_axis, "%s")

_DIRECTIVES = {
    "system": _Directive(
        SpinParameters,
        (("omega0", *_FLOAT), ("omegaQ", *_FLOAT), ("eta", *_FLOAT), ("gamma", *_FLOAT),
         ("hrf", *_FLOAT)),
        SpinParameters,
        lambda p: (p.omega0, p.omegaQ, p.eta, p.gamma, p.h_rf),
    ),
    "pulse": _Directive(
        PulseStep,
        (("t", *_PAIR), ("axis", *_AXIS), ("phase", *_ANGLE), ("flip", *_ANGLE)),
        lambda t, axis, phase, flip: PulseStep(PulseSpec(t, axis, phase, flip)),
        lambda s: (*s.pulse.transition, s.pulse.axis, s.pulse.phase, s.pulse.flip),
    ),
    "pulse2": _Directive(
        TwoFrequencyStep,
        (("a", *_PAIR), ("b", *_PAIR), ("axis", *_AXIS), ("phase", *_ANGLE),
         ("flip", *_ANGLE), ("flip2", *_ANGLE)),
        lambda a, b, axis, phase, flip, flip2: TwoFrequencyStep(
            PulseSpec(a, axis, phase, flip), PulseSpec(b, axis, phase, flip2)
        ),
        lambda s: (*s.a.transition, *s.b.transition, s.a.axis, s.a.phase, s.a.flip, s.b.flip),
    ),
    "free": _Directive(
        FreeEvolutionStep, (("dt", *_FLOAT),), FreeEvolutionStep, lambda s: (s.duration,)
    ),
}
# Built once from the table: each directive's key -> parse in field order,
# and per object type the line's %-template and the read of its arguments.
_PARSERS = {
    word: {key: parse for key, parse, _ in d.fields} for word, d in _DIRECTIVES.items()
}
_FORMATTERS = {
    d.kind: (" ".join([word, *(f"{key}={spec}" for key, _, spec in d.fields)]), d.read)
    for word, d in _DIRECTIVES.items()
}

_TOKEN = re.compile(r"\S+")


def _syntax_error(message, line, line_no, index):
    """ProgramSyntaxError at the index-th token of a line, its 1-based column found by _TOKEN."""
    column = [match.start() + 1 for match in _TOKEN.finditer(line)][index]
    return ProgramSyntaxError(message, line=line_no, column=column)


def _parse_directive(line, tokens, line_no):
    """(word, field values in table order) of one line split into tokens; ProgramSyntaxError if malformed."""
    word = tokens[0]
    parsers = _PARSERS.get(word)
    if parsers is None:
        raise _syntax_error(f"unknown directive {word!r}", line, line_no, 0)
    values = {}
    for index, token in enumerate(tokens[1:], start=1):
        key, eq, raw = token.partition("=")
        if not eq:
            raise _syntax_error(f"expected key=value, got {token!r}", line, line_no, index)
        parse = parsers.get(key)
        if parse is None:
            raise _syntax_error(f"unknown field {key!r} for {word}", line, line_no, index)
        if key in values:
            raise _syntax_error(f"duplicate field {key!r}", line, line_no, index)
        try:
            values[key] = parse(raw)
        except ValueError as exc:
            raise _syntax_error(f"bad value for {key}: {exc}", line, line_no, index) from None
    if len(values) < len(parsers):
        missing = [k for k in parsers if k not in values]
        raise _syntax_error(f"{word} is missing field(s): {', '.join(missing)}", line, line_no, 0)
    return word, [values[k] for k in parsers]


def parse_pulse_program(text) -> PulseProgram:
    """Parse program text into a PulseProgram.

    Raises ProgramSyntaxError (with line/column) for grammar violations and
    SemanticError for structural ones (missing or duplicate system line,
    shared levels in pulse2, invalid level indices).
    """
    built = []  # the SpinParameters, then the steps
    for line_no, raw_line in enumerate(str(text).splitlines(), start=1):
        line = raw_line.partition("#")[0]
        tokens = line.split()  # str.split and _TOKEN's \S both take str.isspace as whitespace
        if not tokens:
            continue
        word, values = _parse_directive(line, tokens, line_no)
        # steps need the system line before them, so a late one is a duplicate
        if word == "system" and built:
            raise SemanticError("duplicate system line", line=line_no)
        if word != "system" and not built:
            raise SemanticError("missing system line (it must precede all steps)", line=line_no)
        try:
            built.append(_DIRECTIVES[word].build(*values))
        except (SharedLevel, ValueError) as exc:
            raise SemanticError(str(exc), line=line_no) from None
    if not built:
        raise SemanticError("missing system line", line=1)
    return PulseProgram(params=built[0], steps=tuple(built[1:]))


def format_pulse_program(prog: PulseProgram) -> str:
    """Serialize a program back to the line format."""
    lines = []
    for obj in (prog.params, *prog.steps):
        template, read = _FORMATTERS[type(obj)]
        lines.append(template % read(obj))
    return "\n".join(lines) + "\n"


_ENTRY = r"\(([^(),\s]+),([^(),\s]+)\)"
# A row is four (re,im) entries with only whitespace between them.
_ROW = re.compile(r"\s*".join([_ENTRY] * 4))
_HEADER = "rho 4x4 basis=eigen"
# The header and four rows of four entries, the whole text in one %-format.
_MATRIX = "\n".join([_HEADER, *[" ".join([f"({_NUMBER},{_NUMBER})"] * 4)] * 4, ""])


def format_density_matrix(rho) -> str:
    """Eigenbasis header plus four rows of (re,im) entries at 17 significant digits."""
    r = np.asarray(rho, dtype=complex)
    if r.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got {r.shape}")
    return _MATRIX % tuple(r.ravel().view(float).tolist())


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
    if header != _HEADER:
        raise ParseError(f"line {header_no}: expected {_HEADER!r}, got {header!r}")
    if len(lines) != 5:
        raise ParseError(f"expected 4 matrix rows, got {len(lines) - 1}")
    values = []
    for line_no, row in lines[1:]:
        match = _ROW.fullmatch(row)
        if match is None:
            raise ParseError(f"line {line_no}: expected 4 '(re,im)' entries, got {row!r}")
        fields = match.groups()
        try:
            row_values = list(map(float, fields))
            good = all(map(math.isfinite, row_values))
        except ValueError:
            good = False
        if not good:
            raise _entry_error(line_no, fields)
        values += row_values
    return np.array(values).view(complex).reshape(4, 4)


def _entry_error(line_no, fields):
    """ParseError naming the first of a row's (re,im) entries that is malformed or not finite."""
    for re_s, im_s in zip(fields[0::2], fields[1::2]):
        try:
            re_v, im_v = float(re_s), float(im_s)
        except ValueError:
            return ParseError(f"line {line_no}: bad entry ({re_s},{im_s})")
        if not (math.isfinite(re_v) and math.isfinite(im_v)):
            return ParseError(f"line {line_no}: entry ({re_s},{im_s}) is not finite")
