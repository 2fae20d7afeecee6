"""CSV serialization for the core containers.

Every file starts with ``# metadata:`` comment lines carrying at least the
seed and package version, then a header row, then data rows.  Floats are
written with repr-level precision so repeated runs are byte-identical.

The data rows are streamed: ``_write_rows`` formats ``_CHUNK_ROWS`` rows at
a time from column arrays, so a writer never holds the whole file (or the
list of its row strings) in memory.  A chunk whose rows are a function of
one repeating column is keyed: each distinct row text is formatted once and
gathered into a byte matrix, behind a leading ``%d`` index column written
as vectorized digits.  Other chunks are formatted row by row.  Both forms
write the same bytes.  The comb gate CSV's optical frequencies are exact
microhertz decimals, computed in integer arithmetic; its counted beats,
quantized to the counter's 1 uHz, repeat and fix the rest of the row, so
its chunks take the keyed form, and each decimal is computed once per
distinct beat of a chunk.

The PSD CSV holds log-frequency band means, ``_BANDS_PER_DECADE`` bands per
decade (``stability.log_band_average``), not the raw Welch bins: its
``rbw_hz`` column is each band's width, and its metadata adds
``bands_per_decade``, the Welch bin spacing ``bin_hz`` and the Welch
resolution bandwidth ``welch_rbw_hz``.
"""

from __future__ import annotations

import numpy as np

from . import __version__
from .errors import InvalidInputError
from .series import AdevCurve, PhaseSeries, PsdEstimate
from .stability import log_band_average


# Rows formatted and written per ``write`` call by ``_write_rows``.
_CHUNK_ROWS = 32768

# Log-frequency bands per decade of the PSD CSV: the base-10 third-octave
# bands of IEC 61260-1.  Band 0 spans 0.891-1.122 Hz, so the rows in
# 0.9-1.1 Hz average nearly the Welch bins that criterion 5 averages; at 20
# per decade that row would span only 0.944-1.059 Hz.
_BANDS_PER_DECADE = 10

_UHZ = 10 ** 6


def _fmt(x):
    return format(float(x), ".17g")


def _row_chunks(*columns):
    """The rows of the equal-length ``columns``, ``_CHUNK_ROWS`` at a time:
    one tuple of column slices per chunk."""
    columns = [np.asarray(c) for c in columns]
    return (tuple(c[start:start + _CHUNK_ROWS] for c in columns)
            for start in range(0, len(columns[0]), _CHUNK_ROWS))


def _digits(column):
    """``"%d" % v`` for each ``v`` of a signed-integer ``column`` as a
    ``(k, width)`` byte matrix, NUL-padded."""
    values = column.astype(np.int64, copy=False)
    neg = values < 0
    # The magnitude as uint64 (two's complement), so -2**63 fits.
    mag = values.view(np.uint64)
    mag = np.where(neg, ~mag + np.uint64(1), mag)
    width = len(str(int(mag.max())))
    # Built transposed, one contiguous row per character position, from the
    # units digit up; a leading zero (nothing left of the magnitude) is NUL.
    cells = np.empty((width + 1, column.size), np.uint8)
    cells[0] = neg * ord("-")
    for place in range(width, 0, -1):
        quotient = mag // 10
        cells[place] = mag - quotient * 10 + ord("0")
        if place < width:
            cells[place] *= mag != 0
        mag = quotient
    return cells.T


def _keyed_rows(fmt, columns, derive=None):
    """``fmt % row`` for each row of the equal-length ``columns`` as a
    ``(k, width)`` byte matrix, NUL-padded, formatting each distinct value of
    the first column once; None if more than half of those values are
    distinct or a later column is not a function of the first.  Values are
    told apart by their bits, so ``-0.0`` and ``0.0`` are two keys.
    ``derive``, an elementwise map from the columns to the columns ``fmt``
    formats, runs on one row of each key."""
    keys = [c.view(np.int64) if c.dtype == np.float64 else c for c in columns]
    # Without return_index, unique sorts by quicksort rather than mergesort.
    _, inverse = np.unique(keys[0], return_inverse=True)
    n_keys = int(inverse.max()) + 1
    if 2 * n_keys > inverse.size:
        return None
    # One row of each key; which one does not matter once the check passes.
    first = np.empty(n_keys, np.intp)
    first[inverse] = np.arange(inverse.size)
    if any(np.any(key[first][inverse] != key) for key in keys[1:]):
        return None
    rows = [c[first] for c in columns]
    if derive is not None:
        rows = derive(*rows)
    table = np.array([(fmt % row).encode() for row in zip(*(c.tolist() for c in rows))])
    return table.view(np.uint8).reshape(n_keys, -1)[inverse]


def _write_rows(path, header_lines, row_fmt, chunks, derive=None):
    """Write ``header_lines`` then one ``row_fmt % row`` line per row.

    ``row_fmt`` has one conversion per column.
    ``chunks`` yields non-empty tuples of equal-length column arrays, one
    array per conversion (or argument of ``derive``); row ``i`` of a chunk
    is the tuple of the columns' ``i``-th items (as ``.tolist()`` gives
    them).  With ``derive``, an elementwise map, the columns after the index
    column (below), if any, are its arguments, and the columns it returns
    are formatted in their place.  Each chunk is written with one ``write``
    call, in one of two ways, chosen per chunk from its values, with no
    setting:

    - Keyed, when the chunk's rows are a function of one column that
      repeats its values (at most half of them distinct).  A format that
      starts with ``%d`` over a signed-integer column writes that index
      column from vectorized decimal digits, and the rest of the row is
      keyed by the next column; any other format is keyed by its first
      column.  The keyed text is formatted once per distinct key and
      gathered into a ``(k, width)`` byte matrix, written without its NULs.
    - Per row, otherwise: ``row_fmt`` repeated once per row, applied by
      one ``%`` to the chunk's items in row order.

    Both write the bytes of ``row_fmt % row`` for each row in turn.
    """
    line_fmt = row_fmt + "\n"
    with open(path, "wb") as fh:
        fh.write(("\n".join(header_lines) + "\n").encode())
        for chunk in chunks:
            index = 1 if row_fmt.startswith("%d") and chunk[0].dtype.kind == "i" else 0
            rows = None
            if len(chunk) > index:
                rows = _keyed_rows(line_fmt[2 * index:], chunk[index:], derive)
            if rows is None:
                if derive is not None:
                    chunk = chunk[:index] + tuple(derive(*chunk[index:]))
                # The chunk's items in row order, formatted by one ``%``.
                k = len(chunk[0])
                items = [None] * (k * len(chunk))
                for j, column in enumerate(chunk):
                    items[j::len(chunk)] = column.tolist()
                fh.write(((line_fmt * k) % tuple(items)).encode())
                continue
            if index:
                rows = np.concatenate((_digits(chunk[0]), rows), axis=1)
            fh.write(rows[rows != 0].tobytes())


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
    _write_rows(path, lines, "%.17g,%.17g,%d",
                _row_chunks(curve.taus, curve.sigmas, curve.n_pairs))


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
    """One row per log-frequency band of ``psd``: the band's mean frequency,
    its mean PSD and, as ``rbw_hz``, its width (``log_band_average``)."""
    lines = metadata_lines(seed, bands_per_decade=_BANDS_PER_DECADE, bin_hz=_fmt(psd.bin_hz),
                           welch_rbw_hz=_fmt(psd.rbw_hz), **extra)
    lines.append("freq_hz,psd,rbw_hz")
    _write_rows(path, lines, "%.17g,%.17g,%.17g",
                _row_chunks(*log_band_average(psd, _BANDS_PER_DECADE)))


def write_phase_csv(path, series: PhaseSeries, seed=None, **extra):
    """Phase record: t_s,x_s.  The times are ``series.times()``, made one
    chunk of rows at a time."""
    lines = metadata_lines(seed, label=series.label or "phase", **extra)
    lines.append("t_s,x_s")
    x = series.samples

    def chunks():
        for start in range(0, x.size, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, x.size)
            yield np.arange(start, stop) * series.tau0, x[start:stop]

    _write_rows(path, lines, "%.17g,%.17g", chunks())


def _nominal_uhz(nominal_hz, offsets_hz):
    """``(whole_hz, frac_uhz)`` of the exact rational ``nominal_hz`` rounded
    to the microhertz, after checking ``offsets_hz`` against it.

    Offsets whose microhertz count does not fit in int64, and totals beyond
    2**63 Hz in magnitude, are refused.  Rounding to the microhertz is
    monotone, so the smallest and largest offsets decide both.
    """
    nominal_whole, nominal_frac = divmod(round(nominal_hz * _UHZ), _UHZ)
    if offsets_hz.size:
        with np.errstate(over="ignore"):
            low, high = np.rint(np.array([offsets_hz.min(), offsets_hz.max()]) * 1e6)
        if not (abs(low) < 2.0 ** 63 and abs(high) < 2.0 ** 63):
            raise InvalidInputError("optical offsets must be finite and below 2**63 microhertz")
        if not (-2 ** 63 < nominal_whole + int(low) // _UHZ
                and nominal_whole + int(high) // _UHZ + 1 < 2 ** 63):
            raise InvalidInputError("optical frequencies must stay below 2**63 Hz in magnitude")
    return nominal_whole, nominal_frac


def _decimal_uhz_columns(nominal_uhz, offsets_hz):
    """Columns ``(sign, whole_hz, frac_uhz)`` of ``nominal + offsets_hz``.

    ``nominal_uhz`` is ``_nominal_uhz``'s, which has checked the offsets;
    each float offset is rounded to the microhertz half-to-even (as
    ``round`` does on a float).  Row ``i`` reads
    ``f"{sign}{whole_hz}.{frac_uhz:06d}"``.
    """
    nominal_whole, nominal_frac = nominal_uhz
    off_whole, off_frac = np.divmod(np.rint(offsets_hz * 1e6).astype(np.int64), _UHZ)
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
    counter resolution); floats cannot carry that at 30 THz.  Every column
    is made one chunk of rows at a time, so the writer's memory does not
    grow with the record.
    """
    offsets = np.asarray(record.optical_offsets_hz, dtype=float)
    nominal_uhz = _nominal_uhz(record.optical_nominal_hz, offsets)
    lines = metadata_lines(seed, gate_s=_fmt(record.gate_s), **extra)
    lines.append("gate_index,counted_hz,f_opt_hz")
    counted = np.asarray(record.counted_hz)

    def chunks():
        for start in range(0, counted.size, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, counted.size)
            yield np.arange(start, stop), counted[start:stop], offsets[start:stop]

    # The decimals are made for each distinct counted beat of a keyed chunk,
    # and for every row of a chunk written per row.
    _write_rows(path, lines, "%d,%.17g,%s%d.%06d", chunks(),
                lambda beats, offs: (beats, *_decimal_uhz_columns(nominal_uhz, offs)))


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
