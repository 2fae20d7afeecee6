"""CSV serialization for the core containers.

Every file starts with ``# metadata:`` comment lines carrying at least the
seed and package version, then a header row, then data rows.  Floats are
written with repr-level precision so repeated runs are byte-identical.

The data rows are streamed: ``_write_rows`` formats a fixed number of rows
at a time from the column arrays, so a writer never holds the whole file
(or the list of its row strings) in memory.  The comb gate CSV's optical
frequencies are exact microhertz decimals, computed in integer arithmetic.
"""

from __future__ import annotations

import numpy as np

from . import __version__
from .errors import InvalidInputError
from .series import AdevCurve, PhaseSeries, PsdEstimate


# Rows formatted and written per ``write`` call by ``_write_rows``.
_CHUNK_ROWS = 8192

_UHZ = 10 ** 6


def _fmt(x):
    return format(float(x), ".17g")


def _write_rows(path, header_lines, row_fmt, columns):
    """Write ``header_lines`` then one ``row_fmt % row`` line per row.

    ``columns`` are equal-length sequences (arrays or lists); row ``i`` is the
    tuple of their ``i``-th items.  Rows are converted with ``.tolist()`` and
    written ``_CHUNK_ROWS`` at a time.
    """
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    line_fmt = row_fmt + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(header_lines) + "\n")
        for start in range(0, n, _CHUNK_ROWS):
            chunk = [c[start:start + _CHUNK_ROWS].tolist() for c in columns]
            fh.write("".join(map(line_fmt.__mod__, zip(*chunk))))


def metadata_lines(seed=None, **extra):
    fields = {"version": __version__}
    if seed is not None:
        fields["seed"] = seed
    fields.update(extra)
    body = " ".join(f"{k}={v}" for k, v in fields.items())
    return [f"# metadata: {body}"]


def write_adev_csv(path, curve: AdevCurve, seed=None, **extra):
    lines = metadata_lines(seed, estimator=curve.estimator, **extra)
    for note in curve.notes:
        lines.append(f"# note: {note}")
    for tau in curve.omitted_taus:
        lines.append(f"# omitted: tau_s={_fmt(tau)} (insufficient data)")
    lines.append("tau_s,sigma,n_pairs")
    _write_rows(path, lines, "%.17g,%.17g,%d", (curve.taus, curve.sigmas, curve.n_pairs))


def read_adev_csv(path) -> AdevCurve:
    """An Allan curve written by ``write_adev_csv``.  A file that is not
    UTF-8 text, or a row that is not ``float,float,int64``, is refused with
    ``InvalidInputError`` naming the file (and the row and its line)."""
    estimator = "standard"
    notes = []
    taus, sigmas, pairs = [], [], []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = [line.rstrip("\n") for line in fh]
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text ({exc})") from None
    header_seen = False
    for lineno, line in enumerate(rows, 1):
        if not line:
            continue
        if line.startswith("#"):
            value = line.partition("estimator=")[2].split()
            if value:
                estimator = value[0]
            if line.startswith("# note: "):
                notes.append(line[len("# note: "):])
            continue
        if not header_seen:
            if line.strip() != "tau_s,sigma,n_pairs":
                raise InvalidInputError(f"{path}: expected AdevCurve header, got {line!r}")
            header_seen = True
            continue
        try:
            tau, sigma, n_pairs = line.split(",")
            taus.append(float(tau))
            sigmas.append(float(sigma))
            pairs.append(np.int64(int(n_pairs)))
        except (ValueError, OverflowError) as exc:
            raise InvalidInputError(
                f"{path}: malformed row {line!r} at line {lineno} ({exc})") from None
    if not header_seen or not taus:
        raise InvalidInputError(f"{path}: no Allan-deviation data found")
    return AdevCurve(np.array(taus), np.array(sigmas), np.array(pairs, dtype=int),
                     estimator=estimator, notes=tuple(notes))


def write_psd_csv(path, psd: PsdEstimate, seed=None, **extra):
    lines = metadata_lines(seed, **extra)
    lines.append("freq_hz,psd,rbw_hz")
    _write_rows(path, lines, f"%.17g,%.17g,{_fmt(psd.rbw_hz)}", (psd.freqs, psd.values))


def write_phase_csv(path, series: PhaseSeries, seed=None, **extra):
    lines = metadata_lines(seed, label=series.label or "phase", **extra)
    lines.append("t_s,x_s")
    _write_rows(path, lines, "%.17g,%.17g", (series.times(), series.samples))


def _decimal_uhz_columns(nominal_hz, offsets_hz):
    """Columns ``(sign, whole_hz, frac_uhz)`` of ``nominal_hz + offsets_hz``.

    Each total is rounded to the microhertz: the exact rational nominal
    once, each float offset half-to-even (as ``round`` does on a float).
    Row ``i`` reads ``f"{sign}{whole_hz}.{frac_uhz:06d}"``.  Offsets whose
    microhertz count does not fit in int64 are refused.
    """
    with np.errstate(over="ignore"):
        off_uhz = np.rint(np.asarray(offsets_hz, dtype=float) * 1e6)
    if not np.all(np.abs(off_uhz) < 2.0 ** 63):
        raise InvalidInputError("optical offsets must be finite and below 2**63 microhertz")
    nominal_whole, nominal_frac = divmod(round(nominal_hz * _UHZ), _UHZ)
    off_whole, off_frac = np.divmod(off_uhz.astype(np.int64), _UHZ)
    if off_uhz.size and not (-2 ** 63 < nominal_whole + int(off_whole.min())
                             and nominal_whole + int(off_whole.max()) + 1 < 2 ** 63):
        raise InvalidInputError("optical frequencies must stay below 2**63 Hz in magnitude")
    carry, frac = np.divmod(off_frac + nominal_frac, _UHZ)
    whole = off_whole + carry + nominal_whole
    # A negative total whole + frac/1e6 (0 <= frac < 1e6) is written from its
    # magnitude: -(-whole - 1).(1e6 - frac) when frac > 0, else -(-whole).000000.
    neg = whole < 0
    borrow = neg & (frac > 0)
    whole = np.where(neg, -whole - borrow, whole)
    frac = np.where(borrow, _UHZ - frac, frac)
    return np.where(neg, "-", ""), whole, frac


def write_measurement_csv(path, record, seed=None, **extra):
    """Counting-chain record: gate_index,counted_hz,f_opt_hz.

    Optical frequencies are written as exact microhertz decimals (the
    counter resolution); floats cannot carry that at 30 THz.
    """
    lines = metadata_lines(seed, gate_s=_fmt(record.gate_s), **extra)
    lines.append("gate_index,counted_hz,f_opt_hz")
    sign, whole, frac = _decimal_uhz_columns(record.optical_nominal_hz,
                                             record.optical_offsets_hz)
    _write_rows(path, lines, "%d,%.17g,%s%d.%06d",
                (np.arange(len(record.counted_hz)), record.counted_hz, sign, whole, frac))


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
