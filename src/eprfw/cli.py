"""``eprfw`` command line: geometry dumps, transport checks, Bell sweeps, verify.

Every option is one entry of ``OPTIONS``, a parser from text and a help line;
both the flags and the ``key=value`` config-file keys are built from it.
Configuration precedence is flags over config-file entries over built-in
defaults.  ``RunConfig.validate()`` is the one gate from options to a run: it
checks every given value, whichever command uses it, and returns the run in
domain units, with xi resolved from beta and, under ``degrees``, a given phi
and phi sweep bounds converted to radians.  Numbers are serialized with 17
significant digits so that parsing an emitted file reproduces them exactly;
identical configurations produce byte-identical output.  ``main`` rejects
``format`` json for ``geometry`` and ``transport``, which write text only.

``bell`` streams its CSV: it evaluates the sweep ``_CHUNK`` points at a time
and writes each chunk's lines as soon as they are formatted, so its memory
does not grow with the number of points.  A first pass evaluates every chunk
and keeps nothing, so a column that is not finite exits 2 before anything is
written.  ``_csv_rows`` is the one CSV formatter, behind this stream and
``render_bell``; since a point's values do not depend on how many points share
its evaluation, the chunked file equals the file of one unchunked evaluation.
It writes the bytes of ``"%.17g"``: values with 1e-4 <= |x| < 1e15 through an
exact array kernel (an error-free scaling by a power of ten, round half to even,
digits from a lookup table), the rest, which take exponent notation, and ±0
through ``%`` itself.  JSON output is built whole.

Exit codes: 0 success, 1 check failure, 2 usage error (a bad option value,
input outside the domain, or overflow or underflow that input causes; each is
one ``eprfw: error:`` line), 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__, epr, geometry, kinematics, transport, verify
from .geometry import SpacetimePoint, StringGeometry
from .kinematics import CircularWorldline

EXIT_OK, EXIT_CHECK_FAILURE, EXIT_USAGE, EXIT_IO = 0, 1, 2, 3

BELL_COLUMNS = (
    "alpha", "xi", "Phi", "theta", "norm",
    "chsh_direct", "chsh_closed", "chsh_restored", "restored_residual",
)

_CSV_HEADER = ",".join(BELL_COLUMNS) + "\n"

SWEEP_VARS = ("alpha", "xi", "phi")

_CHUNK = 2**14  # sweep points per chunk of a streamed bell CSV


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    alpha: float = 0.5
    xi: float | None = None
    beta: float | None = None
    rho: float = 2.0
    phi: float | None = None  # pi radians when not given, with or without degrees
    c: float = 1.0
    steps: int | None = None  # per-command defaults: transport 1024, verify 65536
    sweep: tuple[str, float, float, int] | None = None
    out: str | None = None
    format: str = "csv"
    degrees: bool = False

    def validate(self) -> "RunConfig":
        """The run in domain units: xi resolved from beta, phi pi radians when
        not given, and a given phi and a phi sweep's bounds in radians, so
        ``beta`` is None and ``degrees`` False.

        Every given value is checked, whichever command uses it: this checks
        the rules only the command line knows, then builds the domain objects
        at the given point and at both ends of a sweep, whose constructors and
        ``transport_params`` raise ``ValueError`` outside the domain.  Each of
        their rules bounds an interval of alpha, xi or Phi, and |eta1 + eta2| =
        alpha Phi cosh(xi) e^xi, which bounds |eta1 - eta2|, grows with each of
        them, so a linear sweep lies in the domain exactly when its ends do.
        """
        if self.steps is not None and self.steps < 1:
            raise UsageError(f"steps must be >= 1, got {self.steps}")
        if self.format not in ("csv", "json"):
            raise UsageError(f"format must be csv or json, got {self.format}")
        if self.xi is not None and self.beta is not None:
            raise UsageError("give exactly one of xi and beta (v/c), not both")
        xi = self.xi if self.beta is None else kinematics.xi_from_beta(self.beta)
        if self.phi is None:
            phi = math.pi
        else:
            phi = math.radians(self.phi) if self.degrees else self.phi
        run = replace(self, xi=0.0 if xi is None else xi, beta=None, phi=phi, degrees=False)
        points = [{"alpha": run.alpha, "xi": run.xi, "phi": run.phi}]
        if self.sweep is not None:
            var, start, stop, count = self.sweep
            if var not in SWEEP_VARS:
                raise UsageError(f"sweep variable must be one of {SWEEP_VARS}, got {var!r}")
            if count < 1:
                raise UsageError(f"sweep count must be >= 1, got {count}")
            if self.degrees and var == "phi":
                start, stop = math.radians(start), math.radians(stop)
                run = replace(run, sweep=(var, start, stop, count))
            ends = (start, stop) if count > 1 else (start,)
            points += [dict(points[0], **{var: end}) for end in ends]
        for point in points:
            wl = CircularWorldline(StringGeometry(point["alpha"], c=run.c), rho=run.rho, xi=point["xi"])
            transport.transport_params(wl, point["phi"])
        return run


def _parse_sweep(text: str) -> tuple[str, float, float, int]:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"expected <var>:<start>:<stop>:<count>, got {text!r}")
    return parts[0].strip().lower(), float(parts[1]), float(parts[2]), int(parts[3])


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "false", "1", "0"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text.lower() in ("true", "1")


# Every RunConfig option: its parser from text and its help.
OPTIONS = {
    "alpha": (float, "deficit factor in (0, 1]"),
    "xi": (float, "rapidity (v/c = tanh xi)"),
    "beta": (float, "speed ratio v/c in [0, 1)"),
    "rho": (float, "orbit radius"),
    "phi": (float, "observer azimuth Phi"),
    "c": (float, "speed of light"),
    "steps": (int, "integrator step count N"),
    "sweep": (_parse_sweep, "<var>:<start>:<stop>:<count> over alpha|xi|phi"),
    "out": (str, "output path (default: stdout)"),
    "format": (str, "output format: csv or json (json for bell and verify only)"),
    "degrees": (_parse_bool, "interpret angle inputs (phi and phi sweep bounds) in degrees"),
}


def _cast(name: str, text: str, where: str = ""):
    try:
        return OPTIONS[name][0](text)
    except ValueError as exc:
        raise UsageError(f"{where}bad value for {name}: {exc}") from None


def read_config_file(path: str) -> dict:
    """Parse a plain ``key=value`` config file; ``#`` starts a comment."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in OPTIONS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _cast(key, value.strip(), where=f"{path}:{lineno}: ")
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Flags over config-file entries over defaults, validated into a run."""
    values = read_config_file(args.config) if args.config else {}
    for name in OPTIONS:
        if getattr(args, name) is not None:
            values[name] = _cast(name, getattr(args, name))
    return RunConfig(**values).validate()


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def sweep_points(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (alpha, xi, Phi) of every sweep point of a validated run, as three broadcast arrays in input order."""
    values = {"alpha": cfg.alpha, "xi": cfg.xi, "phi": cfg.phi}
    if cfg.sweep is not None:
        var, start, stop, count = cfg.sweep
        values[var] = np.linspace(start, stop, count)
    return tuple(np.broadcast_arrays(*np.atleast_1d(values["alpha"], values["xi"], values["phi"])))


@contextmanager
def _output(cfg: RunConfig):
    """The run's text stream: the ``--out`` file, opened only when entered, or stdout."""
    if cfg.out is None:
        yield sys.stdout
    else:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _write_text(cfg: RunConfig, text: str) -> None:
    with _output(cfg) as fh:
        fh.write(text)


def _config_echo(cfg: RunConfig) -> dict:
    """The validated run as the JSON output records it; a null ``steps`` means the per-command default."""
    return {name: value for name, value in asdict(cfg).items() if name not in ("beta", "out", "degrees")}


# ------------------------------------------------------------- subcommands


def cmd_geometry(cfg: RunConfig) -> int:
    geom = StringGeometry(cfg.alpha, c=cfg.c)
    pt = SpacetimePoint(rho=cfg.rho, phi=0.0)
    wl = CircularWorldline(geom, rho=cfg.rho, xi=cfg.xi)
    accel = kinematics.proper_acceleration(wl)
    lines = [f"geometry at alpha={_fmt(cfg.alpha)} rho={_fmt(cfg.rho)} xi={_fmt(wl.xi)} c={_fmt(cfg.c)}"]
    g = geometry.metric_at(geom, pt)
    lines.append("metric diag(g) = " + " ".join(_fmt(g[i, i]) for i in range(4)))
    tet = geometry.tetrad_at(geom, pt)
    lines.append("tetrad diag(e^a_mu) = " + " ".join(_fmt(tet.e[i, i]) for i in range(4)))
    names = "t rho z phi".split()
    gam = geometry.christoffel_at(geom, pt)
    gam_fd = geometry.christoffel_fd(geom, pt)
    lines.append("christoffel nonzeros (closed | finite-difference oracle):")
    for idx in np.argwhere(np.abs(gam) > 1e-14):
        lam, mu, nu = idx
        lines.append(
            f"  Gamma^{names[lam]}_{{{names[mu]} {names[nu]}}} = {_fmt(gam[lam, mu, nu])} | {_fmt(gam_fd[lam, mu, nu])}"
        )
    forms = {
        "omega": (geometry.spin_connection_at(geom, pt), geometry.spin_connection_fd(geom, pt)),
        "tau": (geometry.fw_connection_at(geom, pt, accel), None),
        "Omega": (geometry.total_connection_at(geom, pt, accel), None),
    }
    for label, (closed, oracle) in forms.items():
        lines.append(f"{label}[mu, a, b] nonzeros" + (" (closed | oracle):" if oracle is not None else ":"))
        found = np.argwhere(np.abs(closed) > 1e-14)
        if found.size == 0:
            lines.append("  all components zero")
        for idx in found:
            mu, a, b = idx
            entry = f"  {label}_{names[mu]}^{a}_{b} = {_fmt(closed[mu, a, b])}"
            if oracle is not None:
                entry += f" | {_fmt(oracle[mu, a, b])}"
            lines.append(entry)
    _write_text(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_transport(cfg: RunConfig) -> int:
    geom = StringGeometry(cfg.alpha, c=cfg.c)
    steps = cfg.steps if cfg.steps is not None else 1024
    lines = [f"transport at alpha={_fmt(cfg.alpha)} xi={_fmt(cfg.xi)} Phi={_fmt(cfg.phi)} steps={steps}"]
    for direction in (+1, -1):
        wl = CircularWorldline(geom, rho=cfg.rho, xi=cfg.xi, direction=direction)
        params = transport.transport_params(wl, cfg.phi)
        op = transport.transport_closed_form(params)
        num = transport.transport_from_connection(wl, cfg.phi, steps)
        lines.append(f"particle toward phi={'+' if direction > 0 else '-'}Phi:")
        lines.append(f"  eta1={_fmt(params.eta1)} eta2={_fmt(params.eta2)} theta={_fmt(params.theta)}")
        lines.append(f"  Xi closed form rows: [{_fmt(op[0, 0].real)} {_fmt(op[0, 1].real)}] [{_fmt(op[1, 0].real)} {_fmt(op[1, 1].real)}]")
        lines.append(f"  det(Xi) - 1 = {_fmt(abs(np.linalg.det(op) - 1.0))}")
        lines.append(f"  numeric (N={steps}) max deviation = {_fmt(np.abs(num - op).max())}")
        unitarity = np.abs(op.conj().T @ op - np.eye(2)).max()
        lines.append(f"  unitarity deviation |Xi'Xi - I| = {_fmt(unitarity)}")
    lines.append(f"wigner angle theta = {_fmt(params.theta)}")
    _write_text(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


def bell_rows(cfg: RunConfig) -> list[dict]:
    """One row per sweep point, evaluated as arrays by :func:`eprfw.epr.bell_columns`."""
    columns = epr.bell_columns(*sweep_points(cfg))
    return [dict(zip(BELL_COLUMNS, row)) for row in zip(*(columns[col].tolist() for col in BELL_COLUMNS))]


# "%.17g" writes 1e-4 <= |x| < 1e15 positionally, as the 17 significant digits
# of the round-half-even integer N nearest |x| 10^(16 - k), k = floor(log10|x|),
# with the point placed by k and trailing zeros dropped.  Each value takes a
# zero-padded slot of _WIDTH bytes: the sign at byte 0, the "0." and zeros that
# lead a value below 1 just before the first digit, then digit j at byte 6 + 2j
# followed by its point slot; the last slot holds the CSV separator.  Dropping the
# zero bytes leaves the text.
_ROWS = 2**12  # CSV rows per formatted block; bounds the formatter's temporaries
_WIDTH = 40
_SPLIT = 2.0**27 + 1  # Veltkamp's constant: a double is the sum of two 26-bit halves


def _split(a):
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


# 10^(16 - k) for k = -5..15, floor(log10|x|) in range with one to spare on each
# side for the rounding of log10; every power up to 10^22 is exact in binary64
_POW = np.array([float(10 ** (16 - k)) for k in range(-5, 16)])
_POW_HI, _POW_LO = _split(_POW)


def _scaled(a, k):
    """hi + lo = a 10^(16 - k) exactly: the error-free product (Dekker, Numer. Math. 18 (1971) 224)."""
    i = k + 5
    hi = a * _POW[i]
    a_hi, a_lo = _split(a)
    return hi, ((a_hi * _POW_HI[i] - hi) + a_hi * _POW_LO[i] + a_lo * _POW_HI[i]) + a_lo * _POW_LO[i]


def _digit_tables():
    """The ASCII digits of 0..9999, one per even byte of a word, and each number's trailing zeros (4 for 0)."""
    digits = np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1]) % 10
    words = np.zeros((10**4, 8), np.uint8)
    words[:, ::2] = ord("0") + digits
    return words.view(np.uint64).ravel(), 4 - (np.arange(1, 5) * (digits != 0)).max(axis=1)


def _layout_tables():
    """The byte masks that keep a slot's digits and the bytes to add to it, indexed by
    ``(k + 4) * 18 + nsig`` for the decimal exponent k in -4..14 and nsig significant digits."""
    k = np.arange(-4, 15)[:, None, None]
    nsig = np.arange(18)[None, :, None]
    b = np.arange(_WIDTH)
    keep = (b >= 6) & (b % 2 == 0) & ((b - 6) // 2 < np.maximum(nsig, k + 1))
    point = (k >= 0) & (b == 7 + 2 * k) & (nsig > k + 1)
    lead = (k < 0) & (b >= 5 + k) & (b < 6)
    extra = np.where(point | (lead & (b == 6 + k)), ord("."), np.where(lead, ord("0"), 0))
    return [np.asarray(mask, np.uint8).reshape(-1, _WIDTH).view(np.uint64) for mask in (keep * 255, extra)]


_DIGITS4, _TRAILING_ZEROS4 = _digit_tables()
_KEEP, _EXTRA = _layout_tables()


def _divmod(n, d):
    quotient = n // d  # faster than np.divmod for a scalar divisor
    return quotient, n - quotient * d


def _csv_block(table, separators) -> bytes:
    """The CSV bytes of the rows of ``table``, each value as ``"%.17g"`` and followed by its column's separator."""
    values = table.ravel()
    magnitude = np.abs(values)
    exact = (magnitude >= 1e-4) & (magnitude < 1e15)
    magnitude = np.where(exact, magnitude, 1.0)
    k = np.floor(np.log10(magnitude)).astype(np.intp)
    hi, lo = _scaled(magnitude, k)
    # log10 may round across a power of ten: move k so that 1e16 <= hi + lo < 1e17
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    k += high
    k -= low
    fix = np.flatnonzero(low | high)
    hi[fix], lo[fix] = _scaled(magnitude[fix], k[fix])
    # hi >= 2^53 is an even integer, so rounding lo half to even rounds hi + lo so.
    # n stays below 10^17: the largest double below each power of ten in range
    # scales to more than 8 below 10^17, so no value rounds up to the next decade.
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    first, rest = _divmod(n, 10**16)
    upper, lower = _divmod(rest, 10**8)
    groups = (*_divmod(upper, 10**4), *_divmod(lower, 10**4))
    zeros = 0
    for group in groups:
        zeros = _TRAILING_ZEROS4[group] + (group == 0) * zeros
    slots = np.zeros((len(values), _WIDTH // 8), np.uint64)
    for word, group in enumerate(groups, start=1):
        slots[:, word] = _DIGITS4[group]
    chars = slots.view(np.uint8)
    chars[:, 6] = ord("0") + first
    layout = (k + 4) * 18 + 17 - zeros
    slots &= np.take(_KEEP, layout, axis=0)
    slots |= np.take(_EXTRA, layout, axis=0)
    chars[:, 0] = np.where(values < 0, ord("-"), 0)
    fallback = np.flatnonzero(~exact)
    text = "%.17g\n" * len(fallback) % tuple(values[fallback].tolist())
    chars[fallback, :-1] = np.array(text.split(), dtype=f"S{_WIDTH - 1}").view(np.uint8).reshape(-1, _WIDTH - 1)
    chars.reshape(len(table), -1, _WIDTH)[:, :, -1] = separators
    return chars.tobytes().translate(None, b"\0")


def _csv_rows(columns) -> str:
    """The CSV lines, one per point, of equal-length columns in ``BELL_COLUMNS`` order.

    Every value is written as ``"%.17g"``, exactly as :func:`_fmt` writes it.
    A value with 1e-4 <= |x| < 1e15, which ``%`` writes without an exponent, is
    formatted exactly by array arithmetic; the rest (exponent notation, ±0, and
    values that are not finite) are formatted by one ``%`` over those values.
    Rows are formatted ``_ROWS`` at a time.
    """
    table = np.column_stack([np.asarray(column, dtype=float) for column in columns])
    separators = np.full(table.shape[1], ord(","), np.uint8)
    separators[-1] = ord("\n")
    blocks = (_csv_block(table[start:start + _ROWS], separators) for start in range(0, len(table), _ROWS))
    return b"".join(blocks).decode("ascii")


def render_bell(cfg: RunConfig, rows: list[dict]) -> str:
    if cfg.format == "csv":
        return _CSV_HEADER + _csv_rows([[row[col] for row in rows] for col in BELL_COLUMNS])
    payload = {
        "version": __version__,
        "config": _config_echo(cfg),
        "rows": rows,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _chunks(cfg: RunConfig):
    """The (alpha, xi, Phi) arrays of the run's sweep points, ``_CHUNK`` points at a time."""
    points = sweep_points(cfg)
    for start in range(0, len(points[0]), _CHUNK):
        yield tuple(values[start:start + _CHUNK] for values in points)


def cmd_bell(cfg: RunConfig) -> int:
    if cfg.format == "json":
        _write_text(cfg, render_bell(cfg, bell_rows(cfg)))
        return EXIT_OK
    # a first pass keeps nothing: a column that is not finite raises before --out is opened
    for chunk in _chunks(cfg):
        epr.bell_columns(*chunk)
    with _output(cfg) as fh:
        fh.write(_CSV_HEADER)
        for chunk in _chunks(cfg):
            columns = epr.bell_columns(*chunk)
            fh.write(_csv_rows([columns[name] for name in BELL_COLUMNS]))
    return EXIT_OK


def cmd_verify(cfg: RunConfig, inject_omega_sign_flip: bool = False) -> int:
    steps_dense = cfg.steps if cfg.steps is not None else 65536
    results = verify.run_checks(inject_omega_sign_flip=inject_omega_sign_flip, steps_dense=steps_dense)
    lines = [result.line() for result in results]
    failed = [result for result in results if not result.passed]
    lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed")
    text = "\n".join(lines) + "\n"
    if cfg.format == "json":
        payload = {
            "version": __version__,
            "checks": [asdict(result) for result in results],
            "passed": not failed,
        }
        _write_text(cfg, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        if cfg.out is not None:
            sys.stdout.write(text)  # keep the human-readable lines visible
    else:
        _write_text(cfg, text)
    return EXIT_OK if not failed else EXIT_CHECK_FAILURE


# -------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file ('#' comments)")
    for name, (_, help_text) in OPTIONS.items():
        if name == "degrees":
            common.add_argument("--degrees", action="store_const", const="true", help=help_text)
        else:
            common.add_argument(f"--{name}", help=help_text)
    parser = argparse.ArgumentParser(
        prog="eprfw",
        description="EPR spin correlations around a cosmic string via Fermi-Walker transport",
    )
    parser.add_argument("--version", action="version", version=f"eprfw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("geometry", parents=[common], help="dump metric, tetrad, and connection components")
    sub.add_parser("transport", parents=[common], help="dump transport parameters and operators")
    sub.add_parser("bell", parents=[common], help="Bell/CHSH report rows (CSV or JSON)")
    vparser = sub.add_parser("verify", parents=[common], help="run the self-verification battery")
    vparser.add_argument("--inject-omega-sign-flip", action="store_true",
                         help="corrupt the spin connection to prove the checks catch it")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        if cfg.format == "json" and args.command in ("geometry", "transport"):
            raise UsageError(f"{args.command} writes text only; format json is for bell and verify")
        if args.command == "geometry":
            return cmd_geometry(cfg)
        if args.command == "transport":
            return cmd_transport(cfg)
        if args.command == "bell":
            return cmd_bell(cfg)
        # the parser admits no other command: a missing or unknown one exits 2 in parse_args
        return cmd_verify(cfg, inject_omega_sign_flip=args.inject_omega_sign_flip)
    except (ValueError, ArithmeticError) as exc:  # bad input, or an overflow or underflow it causes
        print(f"eprfw: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"eprfw: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
