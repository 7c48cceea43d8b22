"""Command-line interface for the long-range percolation laboratory.

Commands: exponents, limit-curve, sample, distances, figure1, estimate-phi,
collapse, selfcheck.  Options come from defaults, then a flat key=value
config file (--config FILE), then CLI flags, in increasing precedence.
Every option is validated before any computation.

Outputs are CSV and JSON.  CSV tables have a fixed column order and LF line
endings, and each block of rows is one byte matrix that takes every column.
A numpy column's dtype decides its cells: ints as decimal, floats as their
shortest round-trip repr ('.' decimal; nan, inf, -inf), bools as 0/1.  Any
other column is text: bools as 0/1 and other cells as str, quoted where
Python 3.11's csv module quotes them (a ',', '"' or LF, or an empty cell alone
in its row; '"' doubled), and a NUL refused.  Every output file carries the
hash of the resolved config that produced it; a manifest.json with the
config echo, library versions, wall time, and timestamp is written last,
so its presence marks a completed run.  Partial outputs, and an outdir the
run created, are removed on error.  Exit codes: 0 ok, 2 config error, 3
runtime error.  The library checks the memory cap as it samples; its
refusal is a config error even once a run has begun, since every memory
estimate depends on the options alone.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import sys
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .model import NORMS, ModelParams, derived_constants, norm_value
from .exponents import exponent_table, ratio_report, theta_closed_form, theta_fast, theta_recursive
from .limits import lambda_of_t, lower_curve, psi_limit
from .sampler import (DEFAULT_MEMORY_CAP, GENERATOR_TAG, Box, MemoryCapExceeded, _check_coupled_ladder, compute_c0,
                      graph_from_edges, sample_graph, sample_graph_coupled, sample_z)
from .metric import distance_pair, distances_from, restricted_distance, restricted_k_distance
from .estimator import (
    _ball_distances,
    _check_collapse_betas,
    _check_radii,
    _deviation_fraction,
    collapse_report,
    estimate_phi,
    theorem1_fraction,  # unused here, but perfbench/tracing.py's PATCH_POINTS wraps it
)

_Z_STREAM_TAG = 0x5A17


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


def _one_line(msg: str) -> str:
    return " ".join(str(msg).split())


_BLOCK_ROWS = 2**15  # rows formatted per write: the writer's memory does not grow with the table


def _integer_width(col: np.ndarray) -> int:
    """Bytes of the widest cell of an integer or bool array: a '-' if some value is negative,
    then the digits of the largest magnitude."""
    low, high = int(col.min()), int(col.max())
    return (low < 0) + len(str(max(high, -low)))


def _integer_slots(col: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out``, a uint8 matrix _integer_width(col) bytes wide, with the cells of an integer
    or bool array.

    A '-' byte leads if the column has a negative value, then come the digits of
    the magnitude by repeated division by 10, with leading zeros left NUL.  The
    magnitude is |v| taken in int64 and read as uint64, exact for -2**63 (whose
    int64 |v| wraps to itself) and for uint64 values of 2**63 or more.
    """
    if col.dtype.kind == "i":
        negative = col < 0
        if negative.any():
            np.multiply(negative, np.uint8(ord("-")), out=out[:, 0])
            out = out[:, 1:]
        magnitude = np.abs(col, dtype=np.int64).view(np.uint64)
    else:
        magnitude = col.astype(np.uint64, copy=False)
    if int(magnitude.max()) < 2**32:
        magnitude = magnitude.astype(np.uint32)  # a cheaper division
    ten, zero = magnitude.dtype.type(10), np.uint8(ord("0"))
    for pos in range(out.shape[1] - 1, -1, -1):
        quotient = magnitude // ten
        digit = magnitude.astype(np.uint8)
        digit -= quotient.astype(np.uint8) * np.uint8(10)  # exact: the digit is the same mod 256
        digit += zero if pos == out.shape[1] - 1 else (magnitude != 0) * zero  # leading zeros stay NUL
        out[:, pos] = digit
        magnitude = quotient


_POW10 = np.array([float(10**k) for k in range(22)])  # each exact
_NEAR = 2.0**-40  # decision margin; every distance below is exact to within 2**-46


@functools.cache
def _digit_tables() -> tuple:
    """Every four-digit group g's count of trailing zeros, and its ASCII with only the
    first c bytes kept and the rest NUL, as uint32 at c * 10000 + g for c = 0-4."""
    k = np.arange(10000)
    digits = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1)
    zeros = np.minimum.accumulate(digits[:, ::-1] == 0, axis=1).sum(axis=1)
    kept = np.arange(4) < np.arange(5)[:, None, None]
    text = (kept * (digits + ord("0"))).astype(np.uint8).view(np.uint32).ravel()
    zeros.setflags(write=False)
    text.setflags(write=False)
    return zeros, text


def _split(a):
    """Veltkamp's split of float64 ``a`` into two halves of 26 bits, exactly."""
    c = a * 134217729.0
    high = c - (c - a)
    return high, a - high


def _times_pow10(a, k):
    """a * 10**k exactly, as hi + lo (Dekker's product, which needs no FMA)."""
    p = _POW10[k]
    hi = a * p
    (ah, al), (ph, pl) = _split(a), _split(p)
    return hi, ((ah * ph - hi) + ah * pl + al * ph) + al * pl


def _scaled(a):
    """e = floor(log10 a) and y = a * 10**(16 - e) = n + f exactly, with n an int64 in
    [1e16, 1e17) and f in [0, 1], for float64 a in [1e-4, 1e16)."""
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _times_pow10(a, 16 - e)
    # log10 is within an ulp, so e is off by at most one: fix it from the exact hi + lo
    step = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.int64) - ((hi < 1e16) | ((hi == 1e16) & (lo < 0)))
    fix = np.flatnonzero(step)
    if fix.size:
        e[fix] += step[fix]
        hi[fix], lo[fix] = _times_pow10(a[fix], 16 - e[fix])
    floor_lo = np.floor(lo)
    n = hi.astype(np.int64) + floor_lo.astype(np.int64)
    return e, n, np.subtract(lo, floor_lo, out=lo)


def _shortest(a, e, n, f):
    """repr's digits of ``a`` as a 17-digit int64, and where a decision came within _NEAR.

    The digits are the first of the 15-, 16- and 17-digit roundings of y = n + f
    whose distance to y is below half an ulp of ``a`` times 10**(16 - e), the
    bound of the decimals that read back as ``a``.  No decimal of at most 15
    digits but the 15-digit rounding can be within it, since those are spaced
    wider than an ulp.  A decision within _NEAR of a rounding tie or of the bound
    is left to repr, since round-half-even would decide it.
    """
    bound = np.spacing(a) * _POW10[16 - e] * 0.5  # exact: a power of two times 10**k
    near = np.abs(f - 0.5) < _NEAR
    m = n + (f > 0.5)  # the 17-digit rounding, always within the bound
    for unit in (10, 100):  # then the 16- and 15-digit ones, so that the shortest wins
        q, frac = np.divmod(n, unit)
        frac = frac + f
        up = frac > unit / 2
        dist = np.where(up, unit - frac, frac)
        near |= (np.abs(dist - bound) < _NEAR) | (np.abs(frac - unit / 2) < _NEAR)
        m = np.where(dist < bound, (q + up) * unit, m)
    return m, near


def _digit_text(m, e):
    """The top digit of 17-digit m as ASCII, and its other 16 as a (len(m), 16) uint8
    matrix, with the trailing zeros that repr drops made NUL: all of them if e < 0,
    else those past digit e + 1 ('1000.0')."""
    zeros, text = _digit_tables()
    top, rest = np.divmod(m, 10**16)
    groups = np.divmod(rest // 10**8, 10**4) + np.divmod(rest % 10**8, 10**4)
    z = [zeros[g] for g in groups]
    significant = 17 - z[3] - (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0]))
    shown = np.where(e < 0, significant, np.maximum(significant, e + 2))
    quads = np.empty((len(m), 4), np.uint32)
    for j, g in enumerate(groups):
        np.take(text, np.clip(shown - 1 - 4 * j, 0, 4) * 10000 + g, out=quads[:, j])
    return top.astype(np.uint8) + np.uint8(ord("0")), quads.view(np.uint8)


def _float_width(col: np.ndarray) -> int:
    """Bytes of a float64 column's slot: '-', '0.000', 17 digits, and a '.' slot after
    each of the first ``dots`` digits, one more than the largest integer part has;
    at least 24, repr's widest."""
    a = np.abs(col)
    top = a.max(initial=0.0, where=a < 1e16)
    return 23 + (min(16, math.floor(math.log10(top)) + 2) if top >= 1 else 1)


def _float_slots(x: np.ndarray, out: np.ndarray) -> int:
    """Fill ``out``, a uint8 matrix _float_width(x) bytes wide, with repr(v) of a float64
    array's cells, NUL-padded; return how many cells took repr itself.

    The kernel covers finite |x| in [1e-4, 1e16), repr's positional range, by
    _scaled, _shortest and _digit_text.  The other cells take repr: zeros,
    subnormals, exponent notation, inf and nan; powers of two, whose rounding
    interval is asymmetric; cells where _shortest came near a decision edge; and
    the rare cells whose integer part has no '.' slot after it.
    """
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16) & (a.view(np.uint64) & np.uint64(2**52 - 1) != 0)
    a[~fast] = 1.5  # a positional value, so that no arithmetic below sees inf or nan
    e, n, f = _scaled(a)
    # No rounding carries m to 10**17: 1e-4 to 1e16 in steps of ten are doubles or, below 1,
    # round up, so every double below one is over half an ulp from it.
    m, near = _shortest(a, e, n, f)
    del n, f
    top, digits = _digit_text(m, e)
    del m
    # '-', then '0.' and e's leading zeros if e < 0; digit j goes to byte
    # 6 + j + min(j, dots), and a '.' after digit e to byte 7 + 2e
    width = out.shape[1]
    slot = np.zeros((len(x), width), np.uint8)  # contiguous, and copied once into the wider rows
    dots = width - 23
    np.multiply(np.signbit(x), np.uint8(ord("-")), out=slot[:, 0])
    for j, (below, char) in enumerate(zip((0, 0, -1, -2, -3), "0.000")):
        np.multiply(e < below, np.uint8(ord(char)), out=slot[:, 1 + j])
    slot[:, 6] = top
    slot[:, 8:7 + 2 * dots:2] = digits[:, :dots]
    slot[:, 7 + 2 * dots:] = digits[:, dots:]
    dotted = np.flatnonzero((e >= 0) & (e < dots))
    slot[dotted, 7 + 2 * e[dotted]] = ord(".")
    slow = np.flatnonzero(~fast | near | (e >= dots))
    if slow.size:
        cells = b"".join(repr(v).encode().ljust(width, b"\0") for v in x[slow].tolist())
        slot[slow] = np.frombuffer(cells, np.uint8).reshape(-1, width)
    out[...] = slot
    return slow.size


def _text_cells(col, alone: bool) -> np.ndarray:
    """The cells of a column that is not a numpy bool, integer or float array, as a uint8
    matrix of their UTF-8, NUL-padded to the widest.

    A bool is 0/1 and any other cell str(v).  A cell is quoted, its '"' doubled,
    where csv.writer(lineterminator="\\n") of Python 3.11 quotes it: when it holds
    ',', '"' or LF, or when it is empty and ``alone`` in its row.  A cell holding
    NUL is refused, since the padding is dropped.
    """
    cells = []
    for v in col.tolist() if isinstance(col, np.ndarray) else col:
        text = str(int(v)) if isinstance(v, (bool, np.bool_)) else str(v)
        if "\0" in text:
            raise ValueError(f"CSV cell {text!r} holds a NUL")
        if any(c in text for c in ',"\n') or (alone and not text):
            text = '"' + text.replace('"', '""') + '"'
        cells.append(text.encode())
    width = max(map(len, cells), default=0)
    return np.frombuffer(b"".join(c.ljust(width, b"\0") for c in cells), np.uint8).reshape(len(cells), width)


def _rows(block: list) -> bytes:
    """The CSV rows of equal-length columns, as UTF-8.

    Each column fills a fixed-width slot of one uint8 row matrix, then ',' or
    '\\n': a numpy bool or integer array by _integer_slots, a float array by
    _float_slots (narrower floats widened to float64), any other column by its
    _text_cells.  The slots' unused bytes are NUL, which are then dropped.
    Numeric columns are formatted one at a time, so the working memory is the
    matrix, the text cells and one column's arrays.
    """
    slots = []  # (column, slot width, fill) per column
    for col in block:
        kind = col.dtype.kind if isinstance(col, np.ndarray) else "O"
        if kind == "f":
            col = col.astype(np.float64, copy=False)
            slots.append((col, _float_width(col), _float_slots))
        elif kind in "biu":
            slots.append((col, _integer_width(col), _integer_slots))
        else:
            col = _text_cells(col, alone=len(block) == 1)
            slots.append((col, col.shape[1], lambda cells, out: np.copyto(out, cells)))
    rows = np.zeros((len(block[0]), sum(width for _, width, _ in slots) + len(slots)), dtype=np.uint8)
    end = 0
    for col, width, fill in slots:
        fill(col, rows[:, end:end + width])
        end += width + 1
        rows[:, end - 1] = ord(",")
    rows[:, -1] = ord("\n")
    text = rows.tobytes()
    del rows
    return text.translate(None, b"\0")


def _write_csv(path: Path, columns_doc: str, config_hash: str, header, columns, created: list,
               params_doc: str | None = None) -> None:
    """Write one table given as equal-length columns.

    A column is a numpy array, a list, or any object with ``len`` and row
    slicing.  The comment lines and the header go out in one write, then each
    block of _BLOCK_ROWS rows in one write of its _rows.
    """
    n_rows = len(columns[0]) if columns else 0
    if any(len(col) != n_rows for col in columns):
        raise ValueError(f"{path.name}: columns differ in length")
    params_line = f"# params: {params_doc}\n" if params_doc is not None else ""
    with open(path, "wb") as fh:
        created.append(path)  # listed before any write, so that main removes a partial file
        fh.write(f"# columns: {columns_doc}\n{params_line}# config_hash={config_hash}\n".encode()
                 + _rows([[name] for name in header]))
        for lo in range(0, n_rows, _BLOCK_ROWS):
            fh.write(_rows([col[lo:lo + _BLOCK_ROWS] for col in columns]))


def _fields(records, *names) -> list:
    """One column (a list) per attribute name, read across ``records``."""
    return [[getattr(rec, name) for rec in records] for name in names]


def _write_json(path: Path, payload: dict, created: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
        fh.write("\n")
    created.append(path)


# ---------------------------------------------------------------------------
# Option parsing and resolution


def _at_least(k: int):
    """A parser of decimal integers >= k."""
    def parse(raw: str) -> int:
        value = int(raw)
        if value < k:
            raise ValueError(f"must be >= {k}, got {value}")
        return value

    return parse


def _pfloat(raw: str) -> float:
    value = float(raw)
    if not value > 0 or not math.isfinite(value):
        raise ValueError(f"must be a positive finite real, got {raw}")
    return value


def _norm(raw: str) -> str:
    if raw not in NORMS:
        raise ValueError(f"must be one of {', '.join(NORMS)}; got {raw!r}")
    return raw


def _seed(raw: str) -> int:
    value = int(raw)
    if not 0 <= value < 2**64:
        raise ValueError("must be in [0, 2**64)")
    return value


def _int_vector(raw: str) -> tuple:
    return tuple(int(part) for part in raw.split(","))


def _float_vector(raw: str) -> tuple:
    values = tuple(float(part) for part in raw.split(","))
    if not all(map(math.isfinite, values)):
        raise ValueError(f"every value must be finite, got {raw}")
    return values


def _open_unit(raw: str) -> float:
    value = float(raw)
    if not 0 < value < 1:
        raise ValueError(f"must lie in (0, 1), got {raw}")
    return value


def _optional(parse):
    return lambda raw: None if raw == "" else parse(raw)


class _Opt(NamedTuple):
    name: str
    parse: Callable[[str], object]
    default: str
    help: str


class _Command(NamedTuple):
    """One CLI command: its options, its post-parse check, and its runner."""
    options: list
    check: Callable[[dict], None]
    run: Callable[..., None]


_MODEL_OPTS = [
    _Opt("d", _at_least(1), "1", "lattice dimension"),
    _Opt("s", _pfloat, "1.5", "kernel decay exponent, d < s < 2d"),
]
_BETA_OPT = _Opt("beta", _pfloat, "1.0", "inverse temperature (edge intensity)")
_NORM_OPT = _Opt("norm", _norm, "ell2", "kernel norm: ell1, ell2, or ellinf")
_SEED_OPT = _Opt("seed", _seed, "0", "base seed; replica i uses seed + i")
_JOBS_OPT = _Opt("jobs", _at_least(1), "1", "max parallel replica processes")

_OUTDIR_HELP = "output directory (default: $LRPLAB_OUTDIR or ./lrplab_out)"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lrplab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, metavar="command")
    sub.required = True
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--outdir", default=None, help=_OUTDIR_HELP)
        for opt in spec.options:
            p.add_argument(f"--{opt.name.replace('_', '-')}", dest=opt.name,
                           default=None, help=f"{opt.help} (default {opt.default!r})")
    return parser


def _read_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def _resolve(argv):
    """Parse argv into (command, validated config dict, raw string echo, outdir).

    A command that declares ``s`` gets ``cfg["params"]``, its ModelParams at
    the config's beta and norm (1.0 and ell2 where it declares none), before
    the command's own check runs.
    """
    ns = _build_parser().parse_args(argv)
    command = ns.command
    opts = _COMMANDS[command].options
    known = {opt.name for opt in opts}

    raw = {opt.name: opt.default for opt in opts}
    raw["outdir"] = os.environ.get("LRPLAB_OUTDIR", "lrplab_out")
    if ns.config is not None:
        for key, value in _read_config_file(ns.config).items():
            if key != "outdir" and key not in known:
                raise ConfigError(f"unknown config key {key!r} for command {command}")
            raw[key] = value
    for opt in opts:
        flag = getattr(ns, opt.name)
        if flag is not None:
            raw[opt.name] = flag
    if ns.outdir is not None:
        raw["outdir"] = ns.outdir

    cfg = {}
    for opt in opts:
        try:
            cfg[opt.name] = opt.parse(raw[opt.name])
        except ValueError as exc:
            raise ConfigError(f"{opt.name}: {exc}") from exc
    if "s" in known:
        try:
            cfg["params"] = ModelParams(d=cfg["d"], s=cfg["s"], beta=cfg.get("beta", 1.0),
                                        norm=cfg.get("norm", "ell2"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    _COMMANDS[command].check(cfg)
    return command, cfg, raw, Path(raw["outdir"])


def _check_table_memory(name: str, rows: int, arrays: int) -> None:
    """Refuse a table whose ``arrays`` float64 arrays of ``rows`` would pass the memory cap."""
    need = 8 * arrays * rows
    if need > DEFAULT_MEMORY_CAP:
        raise ConfigError(f"{name}: {rows} rows need about {need} bytes, "
                          f"over the memory cap of {DEFAULT_MEMORY_CAP} bytes")


# Post-parse checks: each refuses a config its command cannot run, raising
# ConfigError, and may fill options whose defaults depend on other options.


def _no_check(cfg: dict) -> None:
    pass


def _check_exponents(cfg: dict) -> None:
    # 5 table columns and up to 11 working arrays of exponent_table and
    # ratio_report (tracemalloc: 104 bytes per row at n_max = 999999; the
    # CSV writer's one block fits within the tables' own peak)
    _check_table_memory("n_max", cfg["n_max"] + 1, 16)


def _check_limit_curve(cfg: dict) -> None:
    # 4 table columns and up to 4 working arrays of psi_limit and lower_curve
    # (tracemalloc: 56 bytes per row at n_points = 1000000; the CSV writer's
    # one block fits within the table's own peak)
    _check_table_memory("n_points", cfg["n_points"], 8)


def _check_sampled_box(cfg: dict) -> None:
    """The library's box limit on --L, as a config error."""
    try:
        Box(cfg["d"], cfg["L"])
    except ValueError as exc:
        raise ConfigError(f"L: {exc}") from exc


def _check_sample(cfg: dict) -> None:
    _check_sampled_box(cfg)
    # sample_z's first proposal batch (about 2.3 proposals per draw) sets the
    # peak, above the output rows and the radius column (tracemalloc at
    # 10**6 draws: 136, 199 and 281 bytes per draw at d = 1, 2, 3 under ell1,
    # the largest norm)
    _check_table_memory("z_draws", cfg["z_draws"], 9 * (cfg["d"] + 1))


def _check_distances(cfg: dict) -> None:
    _check_sampled_box(cfg)
    params = cfg["params"]
    if cfg["beta2"] is not None and cfg["beta2"] <= cfg["beta"]:
        raise ConfigError(f"beta2: must exceed beta={cfg['beta']} for a coupled ladder")
    gamma, _ = derived_constants(params)
    if cfg["gamma_bar"] is None:
        cfg["gamma_bar"] = (1.0 + gamma) / 2.0
    elif not gamma < cfg["gamma_bar"] < 1.0:
        raise ConfigError(f"gamma_bar: must lie in (gamma, 1) = ({gamma}, 1)")
    if cfg["source"] is None:
        cfg["source"] = (0,) * params.d
    for name in ("source", "target"):
        vec = cfg[name]
        if vec is None:
            continue
        if len(vec) != params.d:
            raise ConfigError(f"{name}: expected {params.d} coordinates, got {len(vec)}")
        if any(abs(c) > cfg["L"] for c in vec):
            raise ConfigError(f"{name}: {vec} lies outside the box of radius {cfg['L']}")


def _check_replicas(cfg: dict, params_list: list) -> None:
    """The library's replica pre-flight, as a config error.

    The options fix every rule of ``_check_coupled_ladder`` but the one on
    the replica seeds seed + i (i < n_replicas), so a refusal is the seed's.
    """
    try:
        _check_coupled_ladder(params_list, cfg["seed"], cfg["n_replicas"])
    except ValueError as exc:
        raise ConfigError(f"seed: {exc}") from exc


def _check_estimate_phi(cfg: dict) -> None:
    try:
        _check_radii(cfg["params"], [cfg["r"]], cfg["delta"])
    except ValueError as exc:
        raise ConfigError(f"r: {exc}") from exc
    _check_replicas(cfg, [cfg["params"]])


def _check_collapse(cfg: dict) -> None:
    """The ladder at betas exp(log_betas), through the library's collapse pre-flight."""
    log_betas = cfg["log_betas"]
    try:
        cfg["params_list"] = [replace(cfg["params"], beta=math.exp(lb)) for lb in log_betas]
        _check_collapse_betas(cfg["params_list"])
    except OverflowError as exc:
        raise ConfigError(f"log_betas: beta = exp({max(log_betas)}) overflows a float") from exc
    except ValueError as exc:
        raise ConfigError(f"log_betas: {exc}") from exc
    _check_replicas(cfg, cfg["params_list"])


def _config_hash(command: str, raw: dict) -> str:
    """Hash of the options that determine output content.

    outdir and jobs are execution plumbing: they never change the data, so
    runs differing only in them produce byte-identical files.
    """
    lines = [f"command={command}"] + sorted(
        f"{k}={v}" for k, v in raw.items() if k not in ("outdir", "jobs")
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Commands


def _cmd_exponents(cfg, config_hash, outdir, created):
    params, n_max = cfg["params"], cfg["n_max"]
    table = exponent_table(params, n_max)
    _write_csv(outdir / "exponents.csv",
               "n (index), theta (hop exponent), theta_closed_form (block formula), "
               "vartheta (shrink exponent), block (dyadic block index of n)",
               config_hash, ["n", "theta", "theta_closed_form", "vartheta", "block_index"],
               [table.n, table.theta, table.theta_closed_form, table.vartheta, table.block_index],
               created)
    report = ratio_report(params, n_max)
    _write_json(outdir / "ratios.json", {
        "config_hash": config_hash,
        "n_max": report.n_max,
        "vartheta_halving_sup": report.vartheta_halving_sup,
        "vartheta_halving_argmax": report.vartheta_halving_argmax,
        "theta_halving_sup": report.theta_halving_sup,
        "theta_halving_scan_max": report.theta_halving_scan_max,
        "theta_halving_scan_argmax": report.theta_halving_scan_argmax,
        "vartheta_over_theta_sup": report.vartheta_over_theta_sup,
        "vartheta_over_theta_argmax": report.vartheta_over_theta_argmax,
    }, created)


def _cmd_limit_curve(cfg, config_hash, outdir, created):
    params, n_points = cfg["params"], cfg["n_points"]
    t = np.linspace(0.0, 1.0, n_points)
    psi = psi_limit(params, t)
    lam = lambda_of_t(params, t)
    low = lower_curve(params, t)
    _write_csv(outdir / "limit_curve.csv",
               "t (log-log phase in [0,1]), psi (limit curve), "
               "lambda_t (split weight), lower (psi * 2**t)",
               config_hash, ["t", "psi", "lambda_t", "lower"], [t, psi, lam, low], created)


def _coord_header(prefix: str, d: int) -> list:
    return [f"{prefix}_{i + 1}" for i in range(d)]


class _VertexCoords:
    """Coordinate ``axis`` of the vertices of ``index`` (default: every box vertex, in index
    order), as a column made per row slice.

    ``index`` is range-checked once, as ``Box.coords_of`` checks it.  Its digits are cast to
    int64 before the radius is subtracted, since a uint32 difference (``long_edges``) wraps.
    """

    def __init__(self, box: Box, axis: int, index: np.ndarray | None = None):
        if index is not None and index.size and (index.min() < 0 or index.max() >= box.n_vertices):
            raise ValueError("vertex index out of range")
        self.box, self.axis, self.index = box, axis, index

    def __len__(self) -> int:
        return self.box.n_vertices if self.index is None else len(self.index)

    def __getitem__(self, rows: slice) -> np.ndarray:
        index = np.arange(*rows.indices(len(self))) if self.index is None else self.index[rows]
        return np.subtract(self.box.digit(index, self.axis), self.box.radius, dtype=np.int64)


def _cmd_sample(cfg, config_hash, outdir, created):
    params = cfg["params"]
    box = Box(params.d, cfg["L"])
    sample = sample_graph(params, box, cfg["seed"])
    _write_csv(outdir / "edges.csv",
               "x_1..x_d, y_1..y_d (endpoints of one long edge; nearest-neighbor edges are implicit)",
               config_hash, _coord_header("x", params.d) + _coord_header("y", params.d),
               [_VertexCoords(box, axis, sample.long_edges[:, end])
                for end in range(2) for axis in range(params.d)], created,
               params_doc=f"d={params.d} s={params.s!r} beta={params.beta!r} "
                          f"norm={params.norm} kernel={params.kernel.kind}; "
                          f"box_radius={box.radius}; seed={cfg['seed']}; generator={GENERATOR_TAG}")
    if cfg["z_draws"] > 0:
        rng = np.random.default_rng([cfg["seed"], _Z_STREAM_TAG])
        draws = sample_z(params, cfg["eta"], rng, size=cfg["z_draws"])
        _write_csv(outdir / "z_samples.csv",
                   "draw (index); z_* (coordinates); radius (kernel norm of the draw)",
                   config_hash, ["draw"] + _coord_header("z", params.d) + ["radius"],
                   [np.arange(len(draws)), *draws.T, norm_value(draws, params.norm)], created)


def _cmd_distances(cfg, config_hash, outdir, created):
    params, L = cfg["params"], cfg["L"]
    box = Box(params.d, L)
    source = np.asarray(cfg["source"], dtype=np.int64)
    betas = [params.beta] if cfg["beta2"] is None else [params.beta, cfg["beta2"]]
    samples = sample_graph_coupled([replace(params, beta=b) for b in betas], box, cfg["seed"])
    fields = [distances_from(sm, source) for sm in samples]
    sample, field = samples[0], fields[0]
    doc = "index (vertex index); x_* (lattice coordinates); dist (chemical distance from the source)"
    header = ["index"] + _coord_header("x", params.d) + ["dist"]
    if len(fields) > 1:
        doc += "; dist_beta2 (coupled sample at beta2, pointwise <= dist)"
        header.append("dist_beta2")
    columns = [np.arange(box.n_vertices), *(_VertexCoords(box, axis) for axis in range(params.d)),
               *(f.dist for f in fields)]
    _write_csv(outdir / "distances.csv", doc, config_hash, header, columns, created)

    ball_dists = _ball_distances(field, L)
    median = float(np.median(ball_dists))
    summary = {
        "config_hash": config_hash,
        "source": list(cfg["source"]),
        "n_vertices": box.n_vertices,
        "n_long_edges": sample.n_long_edges,
        "ball_points": int(ball_dists.size),
        # the ball pokes out of the box (RestrictedDistanceResult.truncated_by_box at weak radius L)
        "ball_truncated_by_box": bool(np.any(np.abs(source) + L > box.radius)),
        "median_distance_in_ball": median,
        "max_distance": int(field.dist.max()),
    }
    if cfg["epsilon"] is not None:
        scale = cfg["scale"] if cfg["scale"] is not None else median
        summary["deviation_scale"] = scale
        summary["deviation_epsilon"] = cfg["epsilon"]
        summary["deviation_fraction"] = _deviation_fraction(ball_dists, scale, cfg["epsilon"])
    _write_json(outdir / "summary.json", summary, created)

    if cfg["target"] is not None:
        target = np.asarray(cfg["target"], dtype=np.int64)
        D = int(field.dist[box.index_of(target)])
        chain = [("ell1", int(norm_value(target - source, "ell1"))), ("D", D)]
        forward = restricted_distance(sample, source, target)
        backward = restricted_distance(sample, target, source)
        chain.append(("D_restricted_forward", forward.value))
        chain.append(("D_restricted_backward", backward.value))
        value = math.inf
        for k in range(cfg["k_max"] + 1):
            # the k-chain never rises in k and never falls below D, so once at D it stays there
            if value != D:
                value = restricted_k_distance(sample, source, target, k, cfg["gamma_bar"]).value
            chain.append((f"D_restricted_k{k}", value))
        _write_csv(outdir / "chain.csv",
                   "name (distance variant); value (hops; inf if unreachable under the constraint)",
                   config_hash, ["name", "value"],
                   [[name for name, _ in chain],
                    [float(v) if v == math.inf else int(v) for _, v in chain]],
                   created)


def _cmd_figure1(cfg, config_hash, outdir, created):
    d, s, L = 1, 1.5, 2000
    params_list = [ModelParams(d=d, s=s, beta=1.0), ModelParams(d=d, s=s, beta=5.0)]
    box = Box(d, L)
    samples = sample_graph_coupled(params_list, box, cfg["seed"])
    origin = np.zeros(d, dtype=np.int64)
    fields = [distances_from(sm, origin) for sm in samples]
    _write_csv(outdir / "figure1.csv",
               "x (lattice coordinate); dist_beta1, dist_beta5 (chemical distance from 0; "
               "coupled seeds, so dist_beta5 <= dist_beta1)",
               config_hash, ["x", "dist_beta1", "dist_beta5"],
               [np.arange(-L, L + 1), fields[0].dist, fields[1].dist], created)
    beta = np.repeat([pm.beta for pm in params_list], [sm.n_long_edges for sm in samples])
    ends = [_VertexCoords(box, 0, np.concatenate([sm.long_edges[:, end] for sm in samples]))
            for end in range(2)]
    _write_csv(outdir / "long_edges.csv",
               "beta; u, v (endpoints of one long edge, the arcs of the distance profile)",
               config_hash, ["beta", "u", "v"], [beta, *ends], created)


def _executor(jobs: int, replicas: int):
    """A process pool to open with ``with``, of ``jobs`` workers but never more than the replicas or
    the CPUs this process may use; a pool of one runs the replicas in this process (None)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, replicas, cpus)
    return ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext()


def _cmd_estimate_phi(cfg, config_hash, outdir, created):
    params = cfg["params"]
    with _executor(cfg["jobs"], cfg["n_replicas"]) as executor:
        est = estimate_phi(params, cfg["r"], cfg["n_replicas"], cfg["seed"],
                           delta=cfg["delta"], executor=executor)
    n = len(est.records)
    _write_csv(outdir / "phi_records.csv",
               "beta; r (outer radius); replica (index); seed; phi_hat (median distance "
               "over the annulus / (log r)**Delta); n_points (annulus size); "
               "annulus_fraction (share of box vertices in the annulus)",
               config_hash,
               ["beta", "r", "replica", "seed", "phi_hat", "n_points", "annulus_fraction"],
               [np.full(n, params.beta), *_fields(est.records, "r"), np.arange(n),
                *_fields(est.records, "seed", "phi_hat", "n_points", "annulus_fraction")],
               created)
    _write_csv(outdir / "phi_summary.csv",
               "beta; r; n_replicas; seed0; phi_hat (replica mean); ci_low, ci_high "
               "(percentile bootstrap, 95%)",
               config_hash,
               ["beta", "r", "n_replicas", "seed0", "phi_hat", "ci_low", "ci_high"],
               [[v] for v in (params.beta, est.r, est.n_replicas, est.seed0,
                              est.phi_hat, est.ci_low, est.ci_high)],
               created)


def _cmd_collapse(cfg, config_hash, outdir, created):
    t_grid = np.linspace(0.0, 1.0, cfg["t_points"]).tolist()
    with _executor(cfg["jobs"], cfg["n_replicas"]) as executor:
        report = collapse_report(cfg["params_list"], t_grid, cfg["n_replicas"], cfg["seed"],
                                 m_offset=cfg["m_offset"], delta=cfg["delta"],
                                 box_radius_cap=cfg["box_radius_cap"], executor=executor)
    live = [c for c in report.cells if not c.missing]
    n = cfg["n_replicas"]
    beta, t = _fields(live, "beta", "t")
    _write_csv(outdir / "collapse_records.csv",
               "beta; t (log-log phase); replica (index); seed; phi_hat (single-replica estimate)",
               config_hash, ["beta", "t", "replica", "seed", "phi_hat"],
               [np.repeat(beta, n), np.repeat(t, n), np.tile(np.arange(n), len(live)),
                [cfg["seed"] + i for i in range(n)] * len(live),
                [phi for c in live for phi in c.replica_phis]],
               created)
    cell_fields = ["beta", "t", "r", "phi_hat", "ci_low", "ci_high", "value", "limit", "missing",
                   "reason"]
    _write_csv(outdir / "collapse_cells.csv",
               "beta; t; r (probe radius); phi_hat (replica mean); ci_low, ci_high; "
               "value ((log beta)**Delta * phi_hat); limit (explicit limit curve at t); "
               "missing (1 if the cell was infeasible); reason",
               config_hash,
               cell_fields, _fields(report.cells, *cell_fields), created)
    summary_fields = ["beta", "n_cells", "n_missing", "max_abs_discrepancy", "mean_abs_discrepancy",
                      "mean_abs_ci_low", "mean_abs_ci_high", "rank_correlation"]
    _write_csv(outdir / "collapse_summary.csv",
               "beta; n_cells; n_missing; max_abs_discrepancy, mean_abs_discrepancy "
               "(|value - limit| over non-missing cells); mean_abs_ci_low, mean_abs_ci_high "
               "(bootstrap over replicas); rank_correlation (Spearman of value vs limit)",
               config_hash,
               summary_fields, _fields(report.summaries, *summary_fields), created)


# ---------------------------------------------------------------------------
# selfcheck


def _reference_distances(sample) -> np.ndarray:
    """Plain dict-and-deque BFS from the origin, as an independent reference."""
    box = sample.box
    n = box.n_vertices
    coords = box.coords_of(np.arange(n))
    adj = [[] for _ in range(n)]
    for i in range(n):
        for axis in range(box.d):
            for step in (-1, 1):
                y = coords[i].copy()
                y[axis] += step
                if box.contains(y):
                    adj[i].append(int(box.index_of(y)))
    for u, v in sample.long_edges:
        adj[u].append(int(v))
        adj[v].append(int(u))
    dist = np.full(n, -1, dtype=np.int64)
    start = int(box.index_of(np.zeros(box.d, dtype=np.int64)))
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _selfcheck_checks():
    checks = []

    def run(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except AssertionError as exc:
            checks.append((name, False, _one_line(str(exc))))

    def exponent_identities():
        for d, s in ((1, 1.5), (2, 3.0)):
            pm = ModelParams(d=d, s=s, beta=1.0)
            n_max = 511
            rec = theta_recursive(pm, n_max)
            fast = theta_fast(pm, n_max)
            closed = theta_closed_form(pm, np.arange(n_max + 1))
            scale = np.maximum(rec, 1.0)
            assert np.max(np.abs(rec - fast) / scale) <= 1e-12, f"recursive vs fast at d={d}"
            assert np.max(np.abs(rec - closed) / scale) <= 1e-12, f"recursive vs closed form at d={d}"
            n = np.arange(1, (n_max - 1) // 2 + 1)
            resid = rec[2 * n + 1] + rec[2 * n - 1] - 2 * rec[2 * n]
            assert np.max(np.abs(resid)) <= 1e-12, f"three-term identity at d={d}"

    def limit_endpoints():
        for d, s in ((1, 1.5), (2, 3.0)):
            pm = ModelParams(d=d, s=s, beta=1.0)
            _, delta_exp = derived_constants(pm)
            edge = (2 * d - s) ** delta_exp
            assert abs(float(psi_limit(pm, 0.0)) - edge) <= 1e-12, "psi(0) endpoint"
            assert abs(float(psi_limit(pm, 1.0)) - edge) <= 1e-12, "psi(1) endpoint"
            t = np.linspace(0.0, 1.0, 101)
            lhs = (2.0 - lambda_of_t(pm, t)) * 2.0**-t * (2 * d - s) ** delta_exp
            assert np.max(np.abs(lhs - psi_limit(pm, t))) <= 1e-10, "composite-map identity"

    def ratio_lemmas():
        pm = ModelParams(d=1, s=1.5, beta=1.0)
        gamma, _ = derived_constants(pm)
        report = ratio_report(pm, 200)
        assert abs(report.vartheta_halving_sup - 2 * gamma / (1 + gamma)) <= 1e-10, "vartheta ratio sup"
        assert report.theta_halving_scan_max < gamma, "theta ratio strictly below gamma"
        assert abs(report.theta_halving_sup - gamma) <= 1e-10, "theta ratio sup"
        assert report.vartheta_over_theta_argmax in (1, 2), "cross ratio argmax"

    def c0_normalization():
        pm1 = ModelParams(d=1, s=1.5, beta=1.0)
        est = compute_c0(pm1, method="quadrature", budget=10**4)
        assert abs(est.value - math.pi) / math.pi <= 1e-9, f"c0 d=1: {est.value}"
        pm2 = ModelParams(d=2, s=3.0, beta=1.0)
        est2 = compute_c0(pm2, method="quadrature", budget=10**4)
        assert abs(est2.value - math.pi**3 / 4) / est2.value <= 1e-9, f"c0 d=2: {est2.value}"

    def bfs_reference():
        for k in range(25):
            d, L = (1, 25) if k % 2 == 0 else (2, 3)
            pm = ModelParams(d=d, s=1.5 * d, beta=1.0 + 0.2 * k)
            sm = sample_graph(pm, Box(d, L), seed=1000 + k)
            field = distances_from(sm, np.zeros(d, dtype=np.int64))
            ref = _reference_distances(sm)
            assert np.array_equal(field.dist, ref), f"graph {k} mismatch"

    def restricted_witnesses():
        pm = ModelParams(d=1, s=1.5, beta=1.0)
        box = Box(1, 12)
        sm = graph_from_edges(pm, box, np.array([[[0], [12]], [[12], [5]]]))
        assert distance_pair(sm, np.array([0]), np.array([5])) == 2, "D witness"
        assert restricted_distance(sm, np.array([0]), np.array([5])).value == 5, "forward witness"
        assert restricted_distance(sm, np.array([5]), np.array([0])).value == 2, "backward witness"

    run("exponent identities", exponent_identities)
    run("limit-curve endpoints and composite identity", limit_endpoints)
    run("ratio lemmas", ratio_lemmas)
    run("c0 normalization", c0_normalization)
    run("BFS matches reference implementation", bfs_reference)
    run("restricted-distance witnesses", restricted_witnesses)
    return checks


def _cmd_selfcheck(cfg, config_hash, outdir, created):
    checks = _selfcheck_checks()
    for name, passed, detail in checks:
        print(f"{'ok' if passed else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    failed = [name for name, passed, _ in checks if not passed]
    if failed:
        raise RuntimeError(f"selfcheck failed: {', '.join(failed)}")
    _write_json(outdir / "selfcheck.json", {
        "config_hash": config_hash,
        "checks": [{"name": name, "passed": passed} for name, passed, _ in checks],
        "all_passed": True,
    }, created)


_COMMANDS = {
    "exponents": _Command(_MODEL_OPTS + [
        _Opt("n_max", _at_least(2), "64", "largest index n tabulated (>= 2)"),
    ], _check_exponents, _cmd_exponents),
    "limit-curve": _Command(_MODEL_OPTS + [
        _Opt("n_points", _at_least(2), "1001", "grid points on [0, 1] (>= 2)"),
    ], _check_limit_curve, _cmd_limit_curve),
    "sample": _Command(_MODEL_OPTS + [
        _BETA_OPT, _NORM_OPT,
        _Opt("L", _at_least(1), "50", "box radius (box is [-L, L]^d)"),
        _SEED_OPT,
        _Opt("z_draws", _at_least(0), "0", "also draw this many Z variables"),
        _Opt("eta", _pfloat, "1.0", "Z density parameter eta"),
    ], _check_sample, _cmd_sample),
    "distances": _Command(_MODEL_OPTS + [
        _BETA_OPT, _NORM_OPT,
        _Opt("L", _at_least(1), "100", "box radius"),
        _SEED_OPT,
        _Opt("beta2", _optional(_pfloat), "", "if set (> beta), add a coupled distance column at this beta"),
        _Opt("source", _optional(_int_vector), "",
             "BFS source (comma ints; default origin; write --source=-3,2 if the first is negative)"),
        _Opt("target", _optional(_int_vector), "",
             "if set, also report the restricted-distance chain to this vertex "
             "(comma ints; write --target=-3,2 if the first is negative)"),
        _Opt("gamma_bar", _optional(_pfloat), "", "confinement exponent base in (gamma, 1); default (1+gamma)/2"),
        _Opt("k_max", _at_least(0), "3", "largest k in the restricted-distance chain"),
        _Opt("epsilon", _optional(_pfloat), "", "if set, report the deviation fraction at this tolerance"),
        _Opt("scale", _optional(_pfloat), "", "distance scale for the deviation fraction; default median over the ball"),
    ], _check_distances, _cmd_distances),
    "figure1": _Command([_SEED_OPT], _no_check, _cmd_figure1),
    "estimate-phi": _Command(_MODEL_OPTS + [
        _BETA_OPT, _NORM_OPT,
        _Opt("r", _pfloat, "2000", "outer annulus radius (> 1)"),
        _Opt("n_replicas", _at_least(1), "8", "independent replicas"),
        _SEED_OPT,
        _Opt("delta", _open_unit, "0.1", "inner annulus cutoff fraction, in (0, 1)"),
        _JOBS_OPT,
    ], _check_estimate_phi, _cmd_estimate_phi),
    "collapse": _Command(_MODEL_OPTS + [
        _NORM_OPT,
        _Opt("log_betas", _float_vector, "3,4", "comma list of finite log(beta) values, each > 1, increasing"),
        _Opt("t_points", _at_least(2), "21", "grid points on [0, 1] (>= 2)"),
        _Opt("n_replicas", _at_least(1), "4", "replicas per cell"),
        _SEED_OPT,
        _Opt("m_offset", _at_least(0), "4", "dyadic radius offset (log-log periods subtracted)"),
        _Opt("box_radius_cap", _at_least(1), "10000000", "cells needing a larger box are marked missing"),
        _Opt("delta", _open_unit, "0.1", "inner annulus cutoff fraction, in (0, 1)"),
        _JOBS_OPT,
    ], _check_collapse, _cmd_collapse),
    "selfcheck": _Command([], _no_check, _cmd_selfcheck),
}


def _write_manifest(command, raw, config_hash, outdir, created, wall_time):
    _write_json(outdir / "manifest.json", {
        "command": command,
        "config": dict(sorted(raw.items())),
        "config_hash": config_hash,
        "outputs": [p.name for p in created],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "lrplab": __version__,
        },
        "wall_time_s": wall_time,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    }, created)


def main(argv=None) -> int:
    t0 = time.perf_counter()
    try:
        command, cfg, raw, outdir = _resolve(argv)
    except ConfigError as exc:
        print(f"error: config: {_one_line(str(exc))}", file=sys.stderr)
        return 2
    created, fresh = [], not outdir.exists()
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        config_hash = _config_hash(command, raw)
        _COMMANDS[command].run(cfg, config_hash, outdir, created)
        _write_manifest(command, raw, config_hash, outdir, created, time.perf_counter() - t0)
    except Exception as exc:  # deliberate catch-all: the CLI contract is exit codes
        for path in created:
            path.unlink(missing_ok=True)
        if fresh:
            with contextlib.suppress(OSError):
                outdir.rmdir()
        kind, code = ("config", 2) if isinstance(exc, MemoryCapExceeded) else ("runtime", 3)
        print(f"error: {kind}: {_one_line(str(exc))}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
