"""Command-line front end.

Subcommands: classify (status of one configuration), weights (fixed-point
weight table), walls (wall-and-chamber report), flips (interior-wall flip
data), census (closed-form vs brute-force verification; exit 3 on any
disagreement), diagram (SVG weight diagram at a concrete display value of N).

Reports are deterministic: identical flags yield byte-identical output, all
numbers are exact rationals printed as p/q, symbolic values as aN+b.  Exit
codes: 0 success, 2 usage error, 3 census disagreement, 4 internal invariant
violation.  NRGIT_MAX_CENSUS_N overrides the census size guard; weights, walls,
flips and diagram, whose output grows with n, refuse n above 100000, and
weights refuses rows too long to print (_WEIGHTS_CEILING).

A refusal names what the user typed by polytope's one rule: a number by
_value_text, text by _user_text, each whole while short and bounded when
long.  _read reads every typed option for both _scan and argparse, and
refuses a value in argparse's own words under that rule.
"""

from __future__ import annotations

import gc
import math
import os
import sys
from functools import partial
from types import SimpleNamespace

from .binary_forms import (
    Divisor,
    LinParam,
    _check_positive_degree,
    classify_borel,
    classify_sl2,
    classify_unipotent,
)
from .envelope import (
    EnvParams,
    _fixed_rows,
    embed_divisor,
    group_status,
    torus_case_status,
    unipotent_status,
)
from .oracle import DEFAULT_MAX_CENSUS_N, _census
from .polytope import _SHOWN_DIGITS, _affine_text, _fraction, _int_text, _user_text, _value_text
from .vgit import _CHAMBER, chamber_profile, flip_data, walls

_DEGREE_CEILING = 100_000  # the largest n of weights, walls, flips and diagram
# the largest |e| of a --tau or --N written with an exponent, as in 1.5e<e>:
# Fraction computes 10**|e| in full, and diagram --N 1e-100000 already takes
# about 0.25 s on a 2-vCPU host (1.25 s at 1e-300000)
_EXPONENT_CEILING = 100_000
# the largest (n + 1) * (bits of m*n + bits of r) of weights, a measure of the
# digits of its 3(n + 1) rows: the slowest lines it accepts, at n = 100000
# with 41 bits in m*n and r together, take as long as weights --n 100000
# (about 2 s of CPU in JSON on a 2-vCPU host)
_WEIGHTS_CEILING = 2**22


def _census_guard() -> int:
    raw = os.environ.get("NRGIT_MAX_CENSUS_N")
    if raw is None:
        return DEFAULT_MAX_CENSUS_N
    try:
        return int(raw)
    except ValueError:
        too_long = _too_long(raw)
        if too_long is not None:
            raise ValueError(f"NRGIT_MAX_CENSUS_N holds {too_long}")
        raise ValueError(f"NRGIT_MAX_CENSUS_N must be an integer, got {_user_text(raw)}")


def _parse_fraction(text: str) -> Fraction:
    exponent = text.lower().partition("e")[2]
    try:
        too_large = abs(int(exponent)) > _EXPONENT_CEILING
    except ValueError:  # no exponent, or not one: Fraction reads the text
        too_large = False
    if too_large:
        raise ValueError(
            f"expected an exponent of at most {_EXPONENT_CEILING} in size, got {_user_text(text)}"
        )
    try:
        return _fraction()(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"expected a rational p/q, got {_user_text(text)}")


def _too_long(text: str) -> str | None:
    """The words `a number of more than <limit> digits: <first digits>` for
    the first number in text written with more digits than int() and
    Fraction() read (sys.get_int_max_str_digits(), 4300 unless changed), or
    None.  Their own ValueError would make the value malformed and quote it
    in full; this names the number as polytope._value_text does."""
    # Python before 3.10.7 reads any number of digits
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or len(text) <= limit:
        return None
    # runs of digits, each with the sign before it; int() skips a "_"
    words = "".join(
        ch if ch.isdecimal() or ch == "-" else "" if ch == "_" else " " for ch in text
    ).replace("-", " -").split()
    for word in words:
        written = word.lstrip("-")
        if len(written) <= limit:
            continue
        # its first `limit` significant digits, then zeros: a number int()
        # reads and _value_text names by the digits it shares with word
        digits = written.lstrip("0")
        value = int(digits[:limit] or "0") * 10 ** max(len(digits) - limit, 0)
        shown = _value_text(-value if word[0] == "-" else value)
        return f"a number of more than {limit} digits: {shown}"
    return None


def _long_number(argv: list[str]) -> str | None:
    """The refusal of the first argument that holds a number too long for
    int() to read (_too_long), naming its flag, or None.

    main asks only when a line fails, so a clean line pays nothing: every
    line holding such a number fails, in _scan for a flag read by int() or
    with choices, which leaves the line to argparse, and in its handler,
    as a ValueError, for --tau, --N and --profile.  The value of diagram's
    --out (or of a prefix that argparse reads as --out) is a path, never
    read as a number, so it is skipped: cmd_diagram's own refusal names it.
    """
    out = "--out" if argv[:1] == ["diagram"] else ""
    for k, text in enumerate(argv):
        if text.startswith("--") and "=" in text:
            flag = text.partition("=")[0]
        else:
            flag = argv[k - 1] if k and argv[k - 1].startswith("-") else "an argument"
        too_long = None if len(flag) > 2 and out.startswith(flag) else _too_long(text)
        if too_long is not None:
            return f"{flag} holds {too_long}"
    return None


def _ascii_int(text: str) -> int:
    # int() also reads digit-group underscores and non-ASCII digits ("1_0", "٠")
    if "_" in text or not text.isascii():
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


def parse_profile(text: str, n: int) -> Divisor:
    """Parse `inf=<k>,zero=<k>,roots=<k1+k2+...>`; omitted fields are 0/empty;
    a repeated field, an empty piece of a nonempty roots list or a number
    not written in ASCII digits (with sign and spaces) is an error."""
    fields = {}
    for chunk in (text or "").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, eq, val = chunk.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"malformed profile field {_user_text(chunk)}")
        if key not in ("inf", "zero", "roots"):
            raise ValueError(f"unknown profile field {_user_text(key)}")
        if key in fields:
            raise ValueError(f"profile field {key!r} given twice")
        if key == "roots":
            try:
                fields[key] = tuple(_ascii_int(x) for x in val.split("+")) if val.strip() else ()
            except ValueError:
                raise ValueError(f"malformed roots list {_user_text(val)}")
        else:
            try:
                fields[key] = _ascii_int(val)
            except ValueError:
                raise ValueError(f"malformed multiplicity {_user_text(chunk)}")
    return Divisor(n, fields.get("inf", 0), fields.get("zero", 0), fields.get("roots", ()))


_CONTAINERS = (dict, list, tuple)


def _json(value, indent: str) -> str:
    """The bytes of `json.dumps(value, indent=2, sort_keys=True)` for a report
    value (str keys), nested at `indent`, without json's pure-Python encoder,
    which an indent selects."""
    import json  # here and in _json_text alone: only --format json needs it

    # json's own C string encoder
    return _json_text(value, indent, json.encoder.encode_basestring_ascii)


def _json_text(value, indent: str, quote) -> str:
    if isinstance(value, _CONTAINERS):
        if not value:
            return "{}" if isinstance(value, dict) else "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        # str and exact int items inline, with no call each: the bulk of
        # a large report; an exact int formats as int.__repr__ does
        if isinstance(value, dict):
            body = sep.join([
                f"{quote(k)}: "
                + (quote(v) if type(v) is str else f"{v}" if type(v) is int
                   else _json_text(v, inner, quote))
                for k, v in sorted(value.items())
            ])
            return f"{{\n{inner}{body}\n{indent}}}"
        body = sep.join([
            quote(v) if type(v) is str else f"{v}" if type(v) is int
            else _json_text(v, inner, quote)
            for v in value
        ])
        return f"[\n{inner}{body}\n{indent}]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    import json

    return json.dumps(value)


def _flatten(prefix: str, value, lines: list[str]):
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, _CONTAINERS):
                _flatten(f"{prefix}.{k}", v, lines)
            else:
                lines.append(f"{prefix}.{k}: {v}")
    elif isinstance(value, (list, tuple)):
        if all(not isinstance(v, _CONTAINERS) for v in value):
            lines.append(f"{prefix}: [{', '.join(str(v) for v in value)}]")
        else:
            for i, v in enumerate(value):
                _flatten(f"{prefix}[{i}]", v, lines)
    else:
        lines.append(f"{prefix}: {value}")


def emit_report(command: str, inputs: dict, result: dict, notes: list[str], fmt: str) -> str:
    if fmt == "json":
        report = {"command": command, "inputs": inputs, "result": result, "notes": notes}
        return _json(report, "") + "\n"
    lines = [f"command: {command}"]
    _flatten("inputs", inputs, lines)
    _flatten("result", result, lines)
    for note in notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _write(args, inputs: dict, result: dict, notes: list[str]) -> int:
    # the one tail of the report commands: args.cmd's report in args.format
    sys.stdout.write(emit_report(args.cmd, inputs, result, notes, args.format))
    return 0


def _ratio_text(num: int, den: int) -> str:
    # str(Fraction(num, den)) for den > 0, without building the Fraction
    g = math.gcd(num, den)
    return _int_text(num // g) if g == den else f"{_int_text(num // g)}/{_int_text(den // g)}"


def _thresholds(n: int, m: int, r: int) -> dict:
    # (n -+ tau)/2 at tau = r/m, that is (nm -+ r)/(2m), in lowest terms
    return {
        "inf_bound": _ratio_text(n * m - r, 2 * m),
        "other_bound": _ratio_text(n * m + r, 2 * m),
    }


def cmd_classify(args) -> int:
    d = parse_profile(args.profile, args.n)
    lin = LinParam(args.m, args.r)
    params = EnvParams(args.n, lin)
    p = embed_divisor(d)
    result = {
        "status_h": classify_borel(d, lin).label,
        "status_sl2": classify_sl2(d).label,
        "status_u": classify_unipotent(d).label,
        "thresholds": _thresholds(args.n, args.m, args.r),
        "envelope": {
            "group": group_status(p, params).label,
            "torus": torus_case_status(p, params).label,
            "unipotent": unipotent_status(p, args.n).label,
        },
    }
    return _write(args, {"n": args.n, "m": args.m, "r": args.r, "profile": str(d)}, result, [
        "semistable needs multiplicity at [1:0] at most (n-tau)/2 and every "
        "other root multiplicity at most (n+tau)/2; stable needs both strict",
        "status_u encodes the unipotent pair: Stable = fewer than n/2 "
        "coincide, StrictlySemistable = exactly n/2",
    ])


def cmd_weights(args) -> int:
    _check_positive_degree(args.n)
    size = (args.n + 1) * ((args.m * args.n).bit_length() + abs(args.r).bit_length())
    if size > _WEIGHTS_CEILING:
        raise ValueError(
            f"weights rows too long to print: --n {_value_text(args.n)} --m {_value_text(args.m)} "
            f"--r {_value_text(args.r)} gives (n + 1) * (bits of m*n + bits of r) = {size}, "
            f"past {_WEIGHTS_CEILING}")
    rows = [
        {"point": label, "i": i, "weight": f"({_affine_text(a_x, b_x)}, {_affine_text(a_y, b_y)})"}
        for label, i, (a_x, b_x, a_y, b_y) in _fixed_rows(args.n, args.m, args.r)
    ]
    return _write(args, {"n": args.n, "m": args.m, "r": args.r}, {"rows": rows}, [
        "rows list the rank-2 torus weights of the fixed points "
        "([e_j], [x^(n-i) y^i]) for i = 0..n",
    ])


def _profile_payload(profile) -> dict:
    return {
        "kind": profile.quotient_kind.value,
        "dimension": profile.dimension,
        "ss_equals_s": profile.ss_equals_s,
        "note": profile.note,
    }


def cmd_walls(args) -> int:
    segments = []
    # at a fixed n, chamber_profile depends on the segment's kind alone
    profiles = {}
    for seg in walls(args.n):
        if seg.kind is _CHAMBER:
            lo, hi = seg.value
            key, shown = "interval", [str(lo), str(hi)]
        else:
            key, shown = "value", str(seg.value)
        if seg.kind not in profiles:
            tau = seg.value
            if seg.kind is _CHAMBER:
                # the int midpoint, or 1/2 in the chamber (0, 1) of an odd degree
                tau = (lo + hi) // 2 if (lo + hi) % 2 == 0 else _fraction()(lo + hi, 2)
            profiles[seg.kind] = _profile_payload(chamber_profile(args.n, tau))
        # text output prints the keys in insertion order
        segments.append({"kind": seg.kind.value, key: shown, "profile": profiles[seg.kind]})
    return _write(args, {"n": args.n}, {"walls": segments}, [
        "walls sit at tau = 0, tau = n, and the interior slopes with "
        "n - tau even; classification is constant on each open chamber",
    ])


def cmd_flips(args) -> int:
    tau = _parse_fraction(args.tau)
    data = flip_data(args.n, tau)
    result = {
        "flip": {
            "s": data.s,
            "e_plus": list(data.e_plus_weights),
            "e_minus": list(data.e_minus_weights),
            "slice": list(data.slice_weights),
        }
    }
    return _write(args, {"n": args.n, "tau": str(tau)}, result, [
        "crossing the wall contracts the weighted projective space with the "
        "e_minus weights and extracts the one with the e_plus weights; the "
        "slice carries the listed torus weights",
    ])


def cmd_census(args) -> int:
    lin = LinParam(args.m, args.r)
    guard = _census_guard()
    # one profile pass for both reports; it refuses a degree outside the
    # guard before any census work
    diffs, envelope = _census(args.n, lin, guard)
    result = {
        "census_diff": [
            {"check": r.check, "subject": r.subject, "expected": r.expected, "got": r.got}
            for r in diffs.rows
        ],
        "checks_run": diffs.checked,
        "envelope": {
            "counts_intrinsic": list(envelope.counts_intrinsic),
            "counts_envelope": list(envelope.counts_envelope),
            "stable_equal": envelope.stable_equal,
            "semistable_equal": envelope.semistable_equal,
            "chain_ok": envelope.chain_ok,
            "violations": list(envelope.violations),
        },
    }
    _write(args, {"n": args.n, "m": args.m, "r": args.r}, result, [
        "counts are (stable, strictly semistable, unstable) over the full "
        "profile census; census_diff lists closed-form vs brute-force "
        "disagreements and must be empty",
    ])
    return 3 if diffs.rows or not envelope.ok else 0


def _diagram_svg(n: int, m: int, r: int, n_display: Fraction) -> str:
    _check_positive_degree(n)
    # the integer rows at N, in ints when N is integral
    n_value = n_display.numerator if n_display.denominator == 1 else n_display
    points = [
        (label, a_x * n_value + b_x, a_y * n_value + b_y)
        for label, _, (a_x, b_x, a_y, b_y) in _fixed_rows(n, m, r)
    ]
    scale = 20
    # the SVG is the only float: refuse when its width or height, at most
    # 2 * scale * (largest |coordinate| + 2), would not fit one, and name the
    # largest term of the coordinates +-N + m(2i - n) and -N + r
    bound = max(abs(c) for _, x, y in points for c in (x, y))
    if 2 * scale * (bound + 2) > sys.float_info.max:
        flag = max((n_display, "--N"), (m * n, "--m"), (abs(r), "--r"))[1]
        raise ValueError(f"diagram coordinates do not fit a float; use a smaller {flag}")
    families: dict[str, list[tuple[float, float]]] = {}
    for label, x, y in points:
        families.setdefault(label, []).append((float(x), float(y)))
    xs = [x for pts in families.values() for x, _ in pts]
    ys = [y for pts in families.values() for _, y in pts]
    lo_x, hi_x = min(xs + [0.0]) - 2, max(xs + [0.0]) + 2
    lo_y, hi_y = min(ys + [0.0]) - 2, max(ys + [0.0]) + 2
    width = (hi_x - lo_x) * scale
    height = (hi_y - lo_y) * scale

    def sx(x):
        return round((x - lo_x) * scale, 2)

    def sy(y):
        return round((hi_y - y) * scale, 2)

    # the bytes xml.etree.ElementTree.tostring wrote for the same elements:
    # attributes in this order, " />" on empty elements, and nothing here
    # that needs escaping
    w, h = round(width, 2), round(height, 2)
    axis = 'stroke="#888" stroke-width="1" />'
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<line x1="{sx(lo_x)}" y1="{sy(0)}" x2="{sx(hi_x)}" y2="{sy(0)}" {axis}',
        f'<line x1="{sx(0)}" y1="{sy(lo_y)}" x2="{sx(0)}" y2="{sy(hi_y)}" {axis}',
        f'<text x="{sx(hi_x) - 80}" y="{sy(0) - 6}" font-size="12">T1-weight</text>',
        f'<text x="{sx(0) + 6}" y="{sy(hi_y) + 14}" font-size="12">T2-weight</text>',
    ]
    colors = {"[1:0:0]": "#1f6f43", "[0:1:0]": "#274fa8", "[0:0:1]": "#a03232"}
    for label in sorted(families):
        fill = colors[label]
        parts += [
            f'<circle cx="{sx(x)}" cy="{sy(y)}" r="4" fill="{fill}" />'
            for x, y in families[label]
        ]
        lx, ly = families[label][0]
        parts.append(
            f'<text x="{sx(lx) - 10}" y="{sy(ly) + 18}" font-size="11" fill="{fill}">{label}</text>'
        )
    parts.append("</svg>")
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + "".join(parts) + "\n"


def cmd_diagram(args) -> int:
    n_display = _parse_fraction(args.N)
    if n_display <= 0:
        raise ValueError(f"display value of N must be positive, got {_value_text(n_display)}")
    svg = _diagram_svg(args.n, args.m, args.r, n_display)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as exc:
            raise ValueError(f"cannot write --out {_user_text(args.out, str)}: {exc.strerror}") from None
    else:
        sys.stdout.write(svg)
    return 0


def _argparse():
    # argparse, imported on first use: a clean line needs no parser, so only
    # help, usage errors and a refused value reach it
    import argparse

    return argparse


# argparse names the type function in a usage error ("invalid degree value"),
# and prints an ArgumentTypeError's own message
def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        shown = text if len(text) <= _SHOWN_DIGITS else _value_text(value)
        raise _argparse().ArgumentTypeError(f"expected a positive integer, got {shown}")
    return value


def degree(text: str) -> int:
    value = positive_int(text)
    if value > _DEGREE_CEILING:
        raise _argparse().ArgumentTypeError(
            f"degree {_value_text(value)} exceeds the ceiling {_DEGREE_CEILING}")
    return value


_REQUIRED = object()  # the default of an option the command cannot run without
_N = ("--n", degree, None, _REQUIRED, "degree")
_N_ANY = ("--n", positive_int, None, _REQUIRED, "degree")  # classify, census: own limits
_LIN = (("--m", positive_int, None, 1, "tensor power m > 0"), ("--r", int, None, 0, "twist r"))
_FORMAT = ("--format", None, ("text", "json"), "text", None)

# (name, help, handler, options), in the order `nrgit -h` lists them; an
# option is (flag, type, choices, default or _REQUIRED, help), and `--x` has
# the dest `x`.  build_parser and _scan both read this table.
_COMMANDS = (
    ("classify", "classify one configuration", cmd_classify, (
        _N_ANY, *_LIN, _FORMAT,
        ("--profile", None, None, "", "configuration as inf=<k>,zero=<k>,roots=<k1+k2+...>"))),
    ("weights", "fixed-point weight table", cmd_weights, (_N, *_LIN, _FORMAT)),
    ("walls", "wall and chamber report", cmd_walls, (_N, _FORMAT)),
    ("flips", "flip data at an interior wall", cmd_flips, (
        _N, _FORMAT, ("--tau", None, None, _REQUIRED, "interior wall slope (rational)"))),
    # the census pass applies the census guard
    ("census", "verify closed forms against brute force", cmd_census, (_N_ANY, *_LIN, _FORMAT)),
    ("diagram", "SVG weight diagram", cmd_diagram, (
        _N, *_LIN, _FORMAT,
        ("--N", None, None, "10", "display value for N (rendering only)"),
        ("--out", None, None, None, "output path (default stdout)"))),
)


def _read(kind, choices, text: str):
    """An option's value: kind(text), or text for an option of no type, if
    it is one of choices (when given).  _scan and argparse both read a
    typed option through it.  A refused value raises ArgumentTypeError in
    argparse's own words, with the text named by polytope._user_text; an
    ArgumentTypeError of kind's own passes through."""
    try:
        value = kind(text) if kind else text
        if choices is None or value in choices:
            return value
        refusal = f"invalid choice: {_user_text(text)} (choose from {', '.join(map(repr, choices))})"
    except (TypeError, ValueError):
        refusal = f"invalid {kind.__name__} value: {_user_text(text)}"
    raise _argparse().ArgumentTypeError(refusal)


def build_parser() -> argparse.ArgumentParser:
    """The nrgit parser: every subcommand of _COMMANDS."""
    argparse = _argparse()

    class Store(argparse.Action):
        # argparse reads `--flag=--` as the value [] (it drops the "--" and
        # calls no type); refuse it in the words it refuses `--flag --` with
        def __call__(self, parser, namespace, values, option_string=None):
            if values == []:
                raise argparse.ArgumentError(self, "expected one argument")
            setattr(namespace, self.dest, values)

    parser = argparse.ArgumentParser(
        prog="nrgit",
        description="Exact stability computations for n points on the "
        "projective line under the Borel subgroup of SL(2).",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, help_text, handler, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, kind, choices, default, flag_help in options:
            required = default is _REQUIRED
            # choices= only for the help's {text,json}: _read checks them
            p.add_argument(flag, action=Store, type=partial(_read, kind, choices), choices=choices,
                           required=required, default=None if required else default, help=flag_help)
        p.set_defaults(func=handler)
    return parser


def _scan(argv: list[str]) -> SimpleNamespace | None:
    """The attributes `build_parser().parse_args(argv)` sets, on a clean line.

    A clean line is a command, then `flag value` pairs: each flag one of the
    command's own, in full and once; each value not starting with `-`, or
    `-` and ASCII digits, which argparse always reads as a value; each
    accepted by _read, as argparse reads it; every required flag given.
    Any other line gives None and is argparse's: help, abbreviations,
    `--flag=value`, `--` and every usage error.
    """
    row = next((row for row in _COMMANDS if argv and row[0] == argv[0]), None)
    given = dict(zip(argv[1::2], argv[2::2]))
    if row is None or 2 * len(given) + 1 != len(argv):
        return None
    name, _, handler, options = row
    values = {}
    for flag, kind, choices, default, _ in options:
        text = given.pop(flag, None)
        if text is None:
            if default is _REQUIRED:
                return None
            values[flag[2:]] = default
            continue
        if text[:1] == "-" and not (text[1:].isascii() and text[1:].isdigit()):
            return None
        # the except clause imports argparse only for a refused value, and
        # argparse answers that line anyway
        try:
            values[flag[2:]] = _read(kind, choices, text) if kind or choices else text
        except _argparse().ArgumentTypeError:
            return None
    return None if given else SimpleNamespace(cmd=name, func=handler, **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _scan(argv)
    if args is None:
        refusal = _long_number(argv)
        if refusal is not None:
            print(f"error: {refusal}", file=sys.stderr)
            return 2
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {_long_number(argv) or exc}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError, ArithmeticError) as exc:
        # ArithmeticError (DegreeOverflowError, ZeroDivisionError): exact
        # arithmetic left the domain the engine decides over
        print(f"internal invariant violation: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


# The import leaves its objects in the young GC generations and the
# generation-1 counter near its threshold, so the first generation-1 pass
# would fall a few allocations later, inside the command.  Collected here,
# it is part of start-up and the command starts from empty young generations.
gc.collect(1)

if __name__ == "__main__":
    sys.exit(main())
