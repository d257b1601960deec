"""Experiment driver: grid ladders, convergence tables, CSV reports.

Runs the full discrete pipeline (project the datum at mesh size dx, lift to
Lagrangian form, evolve with dissipation, push forward) against the matching
reference solution and measures

    Err_k(T) = sup over the time grid of  max |u_num - u_ref| / max |u_ref|,

with the time grid being the ``time_samples`` uniform points of [0, T].
Breaking times are not added to it: they grow in number with the cells, and
in 27 of 29 measured rungs (cusp, cosine and two-peak ladders) the worst
time was a uniform sample anyway.  The two exceptions, cusp on [-2, -0.5]
at k = 3 and 4, read 23-34% more at a breaking time near t = 2.39.
Experimental orders of convergence between ladder rungs use

    eoc_k = ln(err_{k-1}/err_k) / ln(dx_{k-1}/dx_k),

left blank on the first rung and suppressed when both errors sit below the
round-off floor 1e-11.  All outputs are deterministic: identical configs
produce bit-identical CSV files (wall time lives only in the report object,
never in the CSV).
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import time

import numpy as np

from .errors import ConfigError
from .eulerian import EulerianSolution, InitialDatum, _atom_rows, make_multipeakon
from .evolution import _map, evolve
from .lagrangian import LagrangianState, to_lagrangian
from .metrics import w1
from .numerics import _blocks
from .projection import ProjectionConfig, project
from .pushforward import _u_rows, to_eulerian
from .reference import ReferenceSolution, _check_interval, cosine_datum, cusp_datum
from .reference import multipeakon_datum

__all__ = [
    "ExperimentConfig",
    "EocReport",
    "load_config",
    "config_from_dict",
    "run_solve",
    "run_eoc",
    "run_measure_rates",
    "write_solution_csv",
    "datum_for",
    "reference_for",
    "initial_state",
    "dx_of_level",
]

_EXAMPLES = ("appendixA", "cosine", "cusp", "multipeakon")

#: Below this error the ladder is dominated by round-off, not resolution;
#: order estimates between two such rungs are meaningless and left blank.
EOC_NOISE_FLOOR = 1e-11

#: EocReport.fitted_order leaves out the rungs with an error at or below this.
FIT_FLOOR = 1e-13

DEFAULT_TIME_SAMPLES = 64

#: Largest uniform time grid a ladder accepts (as many floats as
#: projection.MAX_CELLS); a larger one is refused before it is allocated.
MAX_TIME_SAMPLES = 2**26


#: Finest ladder rung: dx_of_level(MAX_LEVEL + 1) underflows to zero.
MAX_LEVEL = 537

#: Rows that write_solution_csv formats and writes at a time.
_CSV_BLOCK_ROWS = 4096


def dx_of_level(k: int) -> float:
    """Mesh size of ladder rung k (dx halves twice per rung)."""
    return 2.0 ** (-2 * k)


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one experiment.

    example selects the benchmark datum ("appendixA", "cosine", "cusp" on
    the interval [a, b], or "multipeakon" with explicit points); k_range the
    mesh ladder (dx_k = 2^(-2k)); T the final time; time_samples the number
    of points of the error-sampling grid.  Setting points for another
    example than multipeakon, or a and b away from (-1, 1) for another
    example than cusp, is a ConfigError: no run would read them.
    """

    example: str
    alpha: float
    T: float
    k_range: tuple = (1, 2, 3, 4)
    time_samples: int = DEFAULT_TIME_SAMPLES
    out_dir: str = ""
    points: tuple = ()
    a: float = -1.0
    b: float = 1.0

    def __post_init__(self):
        if self.example not in _EXAMPLES:
            raise ConfigError(f"unknown example {self.example!r}; expected one of {_EXAMPLES}")
        for name in ("alpha", "T", "a", "b"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a number")
            try:
                object.__setattr__(self, name, float(value))
            except OverflowError:
                raise ConfigError(f"{name} must fit in a float") from None
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ConfigError("T must be positive and finite")
        try:
            ks = tuple(self.k_range)
            bad = len(ks) == 0 or any(int(k) != k or not 0 <= k <= MAX_LEVEL for k in ks)
        except (TypeError, ValueError, OverflowError):
            bad = True
        if bad:
            raise ConfigError(
                f"k_range must be a nonempty list of integers in [0, {MAX_LEVEL}] (so 0 < dx <= 1)"
            )
        object.__setattr__(self, "k_range", tuple(sorted(set(int(k) for k in ks))))
        try:
            n = int(self.time_samples)
            bad = n != self.time_samples or not 2 <= n <= MAX_TIME_SAMPLES
        except (TypeError, ValueError, OverflowError):
            bad = True
        if bad:
            raise ConfigError(f"time_samples must be an integer in [2, {MAX_TIME_SAMPLES}]")
        object.__setattr__(self, "time_samples", n)
        if not isinstance(self.out_dir, str):
            raise ConfigError("out_dir must be a string")
        try:
            pts = tuple((float(x), float(u)) for x, u in self.points)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError("points must be a list of [x, u] pairs") from None
        if self.example == "multipeakon" and len(pts) == 0:
            raise ConfigError("multipeakon example needs a nonempty points list")
        if self.example != "multipeakon" and pts:
            raise ConfigError(
                f"points set the multipeakon datum; example {self.example} reads none"
            )
        object.__setattr__(self, "points", pts)
        _check_interval(self.a, self.b)
        if self.example != "cusp" and (self.a, self.b) != (-1.0, 1.0):
            raise ConfigError(f"a and b set the cusp interval; example {self.example} reads none")


def config_from_dict(d: dict) -> ExperimentConfig:
    """Build a config from a JSON-style dict, rejecting unknown keys."""
    if not isinstance(d, dict):
        raise ConfigError("config root must be a JSON object")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(d) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    try:
        return ExperimentConfig(**d)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _read_config(path: str) -> dict:
    """The JSON object in the config file at path, not yet validated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    return config_from_dict(_read_config(path))


def datum_for(cfg: ExperimentConfig) -> InitialDatum:
    """Initial datum selected by cfg.example."""
    if cfg.example == "appendixA":
        return multipeakon_datum()
    if cfg.example == "multipeakon":
        return make_multipeakon(cfg.points)
    if cfg.example == "cosine":
        return cosine_datum()
    return cusp_datum(cfg.a, cfg.b)


def reference_for(cfg: ExperimentConfig) -> ReferenceSolution:
    """Reference solution for cfg.example; custom multipeakon data have none."""
    if cfg.example == "multipeakon":
        raise ConfigError("no reference solution is available for a custom multipeakon example")
    family = "multipeakon_appA" if cfg.example == "appendixA" else cfg.example
    return ReferenceSolution(family=family, alpha=cfg.alpha, a=cfg.a, b=cfg.b)


@dataclasses.dataclass(frozen=True)
class EocReport:
    """Ladder of errors with experimental convergence orders.

    rows hold (k, dx, err, eoc) with eoc None on the first rung and wherever
    the order estimate is suppressed; kind names the measured distance.
    wall_time is metadata only and never written to CSV.
    """

    example: str
    alpha: float
    T: float
    rows: tuple
    kind: str = "linf_u"
    wall_time: float = 0.0

    def write_csv(self, path: str) -> None:
        lines = ["k,dx,err,eoc"]
        for k, dx, err, eoc in self.rows:
            tail = "" if eoc is None else f"{eoc:.17g}"
            lines.append(f"{k:d},{dx:.17g},{err:.17g},{tail}")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    def fitted_order(self) -> float:
        """Least-squares slope of ln(err) against ln(dx) over the rungs with
        err above FIT_FLOOR."""
        pts = [(dx, err) for _, dx, err, _ in self.rows if err > FIT_FLOOR]
        if len(pts) < 2:
            raise ConfigError("need at least two rungs above the floor to fit an order")
        lx = np.log([p[0] for p in pts])
        ly = np.log([p[1] for p in pts])
        return float(np.polyfit(lx, ly, 1)[0])


def _attach_eoc(triples):
    rows = []
    prev = None
    for k, dx, err in triples:
        eoc = None
        if prev is not None:
            _, pdx, perr = prev
            noise = err < EOC_NOISE_FLOOR and perr < EOC_NOISE_FLOOR
            if not noise and err > 0.0 and perr > 0.0:
                eoc = math.log(perr / err) / math.log(pdx / dx)
        rows.append((k, dx, err, eoc))
        prev = (k, dx, err)
    return tuple(rows)


def initial_state(cfg: ExperimentConfig, dx: float) -> LagrangianState:
    """Lagrangian state at time 0 of cfg's datum projected at mesh size dx."""
    projected = project(datum_for(cfg), ProjectionConfig(dx=dx))
    return to_lagrangian(projected, alpha=cfg.alpha)


def run_solve(cfg: ExperimentConfig, dx: float, t_list) -> list:
    """Full pipeline at one mesh size, returning one Eulerian snapshot per time.

    Projects cfg's datum at mesh size dx and returns, for each of the
    nondecreasing times t in t_list, ``to_eulerian(evolve(s0, t))``: the
    snapshot mapped in closed form from the t=0 state s0, whatever breaking
    events lie between the times.  s0 is dropped before the last snapshot's
    pushforward, so one time costs what that one expression does.
    """
    ts = np.asarray(t_list, dtype=float)
    if ts.size == 0:
        raise ConfigError("t_list must be nonempty")
    if np.any(~np.isfinite(ts)) or np.any(ts < 0.0):
        raise ConfigError("t_list entries must be finite and nonnegative")
    if np.any(np.diff(ts) < 0.0):
        raise ConfigError("t_list must be nondecreasing")
    *head, last = ts.tolist()
    s = initial_state(cfg, dx)
    sols = [to_eulerian(evolve(s, t)) for t in head]
    s = evolve(s, last)
    return sols + [to_eulerian(s)]


def _rel_err(nodes, values, knots, at_knots) -> float:
    """max |u_num - u_ref| / max |u_ref| over the nodes of the numerical
    profile (nodes, values) and the reference's knots (at_knots = u_ref
    there); each side's values at its own points are read, and the other
    side's interpolated there."""
    ref_at_nodes = np.interp(nodes, knots, at_knots)
    diff = float(np.abs(values - ref_at_nodes).max())
    den = float(np.abs(ref_at_nodes).max())
    diff = max(diff, float(np.abs(np.interp(knots, nodes, values) - at_knots).max()))
    den = max(den, float(np.abs(at_knots).max()))
    return diff / max(den, 1e-300)


def _worst_rel_err(s: LagrangianState, t: np.ndarray, profiles) -> float:
    """The largest _rel_err of the snapshots of s at the times t against
    the reference rows profiles(t, x_lo, x_hi) (see ReferenceSolution._rung)."""
    sols = _u_rows(*_map(s, t)[:3])
    x_lo = np.array([nodes[0] for nodes, _ in sols])
    x_hi = np.array([nodes[-1] for nodes, _ in sols])
    worst = 0.0
    for (nodes, values), (knots, at_knots) in zip(sols, profiles(t, x_lo, x_hi)):
        worst = max(worst, _rel_err(nodes, values, knots, at_knots))
    return worst


def _ladder(cfg: ExperimentConfig, kind: str, csv_prefix: str, rung) -> EocReport:
    """One row per k in cfg.k_range with the error rung(ref, dx_of_level(k))
    against cfg's reference, the EOC column attached; written as
    <csv_prefix>_<example>_alpha<alpha>_T<T>.csv under cfg.out_dir if set."""
    t0 = time.perf_counter()
    ref = reference_for(cfg)
    triples = [(k, dx_of_level(k), rung(ref, dx_of_level(k))) for k in cfg.k_range]
    report = EocReport(
        example=cfg.example,
        alpha=cfg.alpha,
        T=cfg.T,
        rows=_attach_eoc(triples),
        kind=kind,
        wall_time=time.perf_counter() - t0,
    )
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        name = f"{csv_prefix}_{cfg.example}_alpha{cfg.alpha:g}_T{cfg.T:g}.csv"
        report.write_csv(os.path.join(cfg.out_dir, name))
    return report


def run_eoc(cfg: ExperimentConfig) -> EocReport:
    """Convergence study of the sup-in-time relative wave-profile error.

    Err is the largest error over the cfg.time_samples uniform times of
    [0, T], the same grid on every rung.  Each snapshot is mapped from the
    t=0 state in closed form, and the snapshots of a rung are evaluated in
    chunks of times, against reference tables that share one static part
    per rung.  A chunk holds as many times as numerics._CHUNK_FLOATS holds
    rows as wide as the wider of a state and a table.
    """
    samples = np.linspace(0.0, cfg.T, cfg.time_samples)

    def rung(ref, dx):
        s = initial_state(cfg, dx)
        profiles, width = ref._rung(n_base=max(4001, 3 * (s.n_cells + 1)))
        chunks = _blocks(samples.size, max(width, s.n_cells + 1))
        return max(_worst_rel_err(s, samples[b:e], profiles) for b, e in chunks)

    return _ladder(cfg, "linf_u", "eoc", rung)


def run_measure_rates(cfg: ExperimentConfig) -> EocReport:
    """Wasserstein-1 distance between numerical and reference energy measures.

    Only meaningful when no energy is dissipated (the distance needs equal
    masses), so alpha must be 0.  The probe time is cfg.T; the fitted order
    over the ladder is available via EocReport.fitted_order().
    """
    if cfg.alpha != 0.0:
        raise ConfigError("measure-rate runs need alpha = 0 (equal-mass transport)")

    def rung(ref, dx):
        # one expression, so that the states are freed before the table is
        # built; of the solution and of the profile only the measures are kept
        mu = to_eulerian(evolve(initial_state(cfg, dx), cfg.T)).mu
        nodes = mu.F_ac.nodes
        measure = ref.profile(
            cfg.T, x_lo=float(nodes[0]), x_hi=float(nodes[-1]), n_base=max(4001, 3 * nodes.size)
        ).measure()
        return w1(measure, mu)

    return _ladder(cfg, "w1", "w1", rung)


# _g17's tables: 10^k for k <= 20 (exact doubles) and its Veltkamp halves;
# the four-digit groups "0000".."9999" as little-endian uint32 (one ASCII
# digit a byte) and their trailing zeros ("0000" has 4); _BELOW[c] the mask
# of a word's c low bytes; _KEEP[s * _G17_COLS + e] the columns s..e of a row.
_SPLIT = 2.0**27 + 1.0
_POW10 = np.array([float(10**k) for k in range(21)])
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_DIGITS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1)
_DIGITS4 = _DIGITS.view("<u4").ravel()
_ZEROS4 = np.logical_and.accumulate(_DIGITS[..., ::-1] == 48, -1).sum(-1, np.int8).ravel()
_BELOW = np.array([2 ** (8 * c) - 1 for c in range(9)], dtype=np.uint64)
#: Columns of one value's text: '-0.000' (the longest text left of the
#: digits) at 0..5, the 17 digits at 6..22, the separator at 23 at most, and
#: a spare column 24, so that columns 17..24 can be viewed as one word.
_G17_COLS = 25
_COL = np.arange(_G17_COLS)
_KEEP = ((_COL >= _COL[:, None, None]) & (_COL <= _COL[:, None])).reshape(-1, _G17_COLS)


def _scaled_round(a, k):
    """round-half-even(a * 10^k) as int64, exact where it is at least 2^53:
    Dekker's product gives a * 10^k = hi + lo exactly, and hi >= 2^53 is an
    even integer.  Each step is a ufunc call of its own, so no fused
    multiply-add enters."""
    hi = a * _POW10.take(k)
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p_hi, p_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    lo = a_hi * p_hi - hi
    lo += a_hi * p_lo
    lo += a_lo * p_hi
    lo += a_lo * p_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _g17(values, seps: bytes) -> bytes:
    """The bytes of ``"%.17g" % x`` for every x of values (float64, shape
    (rows, len(seps))), each followed by seps[j] for column j.

    The values that %g writes in fixed notation (decimal exponent X in
    [-4, 16], and zeros) are formatted here: D = round(|x| 10^(16 - X))
    (X guessed from log10 and stepped once where D has not 17 digits), D's
    digits written into a row of _G17_COLS bytes, the digits left of the
    point moved one column left to make room for it, and only the columns
    from the sign to the last nonzero digit (or the point's left neighbour)
    and the separator kept.  The others go through %.17g and are spliced in.
    """
    v = values.ravel()
    n = v.size
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        X = np.floor(np.log10(a))
    zero = a == 0.0
    slow = ~(((X >= -4) & (X <= 16)) | zero)
    a[slow] = 1.0
    X[slow | zero] = 0.0
    X = X.astype(np.int64)
    D = _scaled_round(a, 16 - X)
    redo = np.flatnonzero((D >= 10**17) | ((D < 10**16) & ~zero))
    X[redo] += np.where(D[redo] >= 10**17, 1, -1)
    lost = redo[(X[redo] < -4) | (X[redo] > 16)]
    slow[lost], a[lost], X[lost] = True, 1.0, 0
    D[redo] = _scaled_round(a[redo], 16 - X[redo])
    t, r = np.divmod(D, 10**16)
    q, s = np.divmod(r, 10**8)
    q1, q2 = np.divmod(q.astype(np.int32), 10**4)
    s1, s2 = np.divmod(s.astype(np.int32), 10**4)
    text = np.full((n, _G17_COLS), ord("0"), dtype=np.uint8)
    groups = text[:, 3:23].view("<u4")  # "000" and D's first digit, then four digits each
    for j, g in enumerate((t, q1, q2, s1, s2)):
        groups[:, j] = _DIGITS4.take(g)
    # trailing zeros of D: 16 for D = 0, which then keeps no digit right of the point
    high = _ZEROS4.take(q2) + _ZEROS4.take(q1) * (q2 == 0)
    zeros = _ZEROS4.take(s2) + _ZEROS4.take(s1) * (s2 == 0) + high * (s == 0)
    point = 6 + X
    # move the digits left of the point one column left, 8 columns at a time
    # (a little-endian word: column i + j is its j-th lowest byte)
    for i in (0, 8, 16):
        below = np.clip(point - i, 0, 8)  # columns i.. left of the point
        if not below.any():
            break
        w = text[:, i : i + 8].view("<u8")[:, 0]
        w ^= (w ^ text[:, i + 1 : i + 9].view("<u8")[:, 0]) & _BELOW.take(below)
    flat = text.reshape(-1)
    row = np.arange(0, n * _G17_COLS, _G17_COLS)
    flat[row + point] = ord(".")
    lead = point - 1 - np.maximum(X, 0)  # the first column of |x|'s text
    flat[row + lead - 1] = ord("-")
    start = lead - np.signbit(v)
    end = np.where(16 - zeros > X, 23 - zeros, point)  # the separator's column
    fb = np.flatnonzero(slow)
    start[fb] = end[fb]
    flat[row + end] = np.tile(np.frombuffer(seps, dtype=np.uint8), n // len(seps))
    kept = flat[_KEEP.take(start * _G17_COLS + end, axis=0).reshape(-1)]
    if fb.size:
        texts = [("%.17g" % x).encode() for x in v[fb].tolist()]
        at = np.repeat(np.cumsum(end - start + 1)[fb] - 1, [len(b) for b in texts])
        kept = np.insert(kept, at, np.frombuffer(b"".join(texts), dtype=np.uint8))
    return kept.tobytes()


def write_solution_csv(sol: EulerianSolution, path: str) -> None:
    """Write one snapshot as CSV columns x,u,F (17 significant digits).

    At an atom the cumulative jumps; the file records both one-sided values
    as two consecutive rows with the same x, F from the left and then from
    the right (:func:`eulerian._atom_rows`, which also makes the Lagrangian
    lift's nodes).  Rows are formatted and written in blocks of
    :data:`_CSV_BLOCK_ROWS`, so the text of the whole file is never held at
    once; the bytes are those of formatting each value with ``"%.17g"`` row
    by row, made by :func:`_g17`.
    """
    atom_pos = sol.mu.atom_positions
    xs = np.union1d(sol.u.nodes, atom_pos) if atom_pos.size else sol.u.nodes
    rows = np.column_stack(_atom_rows(sol.mu, xs, sol.u(xs), sol.mu.F_ac(xs)))
    with open(path, "wb") as fh:
        fh.write(b"x,u,F\n")
        for start in range(0, rows.shape[0], _CSV_BLOCK_ROWS):
            fh.write(_g17(rows[start : start + _CSV_BLOCK_ROWS], b",,\n"))
