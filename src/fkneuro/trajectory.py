"""Time-series state container, the time loop both solvers share
(``advance``), and the container's CSV / binary output formats.

Concentration values are reported as computed: anything outside
[-0.05, 1.05] is flagged with a warning row in the CSV, never clipped.

Every value in a CSV is the text of ``'%.17g' % x`` (``fmt17``).  The
writer ``write_rows17`` makes it for whole tables, in chunks of ``CHUNK``
values, and can make the long-format lines `t,label,value` of chosen
columns from the same text (a graph run's ``nodes.csv``, see
``write_series_csv``):

1. E = floor(log10|x|).
2. v = |x| * 10**(16 - E) as ph + pl.  The power is a table pair hi + lo,
   both correctly rounded from Python integers; ph is |x| * hi rounded and
   pl its exact error (Dekker's product) plus |x| * lo.  ph is above 2**53,
   so an integer, |pl| < 32, and |v - (ph + pl)| < 1e-14.
3. Where v lies outside [1e16, 1e17), log10 missed the decade: E moves by
   one and v is computed again.
4. D = ph + round(pl) are the 17 significant digits, a D of 10**17 carries
   into E; the digits come from a table of the 4-digit groups of D.
5. The sign, E and the count of significant digits pick which bytes of a
   fixed row of digits, '.', "0.000" and exponent make the text.

D is v correctly rounded unless the fraction of v lies within step 2's
error of 1/2.  A value whose computed fraction is within 1e-9 of 1/2 takes
Python's own 17 digits instead (``'%.16e'``), and so does every nonzero
finite |x| outside [1e-280, 1e280], where the power table or the product
could leave the range of doubles; zero, inf and nan have rows of their own.
So every byte is the text of ``'%.17g' % x`` by construction.  On
concentration tables no value takes the Python path, and a table is
written 2.5-4 times faster than with one ``%`` conversion per value.
"""

import functools
import logging
import math
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

OVERSHOOT_LOW = -0.05
OVERSHOOT_HIGH = 1.05


def fmt17(x: float) -> str:
    """Canonical float text: 17 significant digits, reproducible."""
    return f"{float(x):.17g}"


# The array formatter.  Each value gets a row of six 8-byte words: the sign,
# the prefix "0.000" of 0.000ddd, d0 and a '.'; then d1..d16 in four words
# of "d.d.d.d."; then the exponent "e±ddd" and the separator byte.  The
# words come from tables indexed by d0, by the 4-digit groups of the 17
# significant digits and by the decimal exponent X.  A value's class (sign,
# X, count of significant digits) gives a mask that zeroes the bytes its
# text does not use, and deleting the zero bytes leaves the text.
_W = 48  # bytes per row
_D0, _EXP, _SEP = 6, 40, 45  # columns of d0 (d_i is at _D0 + 2i), 'e', separator
# values per chunk: a chunk's rows and temporaries (48 bytes a value) stay
# below glibc's 128 kB mmap threshold (see the CHUNK note in dg/space.py)
CHUNK = 2048

_S_MIN, _S_MAX = -280, 298  # powers 10**s in the table
_LO, _HI = 1e-280, 1e280  # |x| window of the arithmetic path
_MARGIN = 1e-9  # scaled fractions this close to 1/2 go through Python
_X_OFF = 330  # exponent-table row of X (-324..308); rows 0-2 are zero, inf, nan
_ZERO, _INF, _NAN = 0, 1, 2
_HIGH_26 = np.uint64(0xFFFF_FFFF_F800_0000)  # a double's sign, exponent and top 26 bits
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting factor


def _words(texts, width: int = 8) -> np.ndarray:
    """The byte strings texts, each padded with zero bytes to width, as uint64 words."""
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), np.uint64)


def _masks() -> np.ndarray:
    """Masks of the row, as (rows, 6) words of 0x00/0xff bytes.

    Class 0..20 is fixed notation with X = class - 4, 21/22 exponential
    notation with a 2/3-digit exponent, 23/24/25 zero/inf/nan; the mask of
    (neg, c, nsig) is row (26 * neg + c) * 17 + nsig - 1.
    """
    c = np.arange(26)[:, None]
    nsig = np.arange(1, 18)[None, :]
    X = c - 4
    fixed, expo, word = c <= 20, (c == 21) | (c == 22), c >= 24
    m = np.zeros((2, 26, 17, _W), bool)
    for i in range(17):
        m[..., _D0 + 2 * i] = (fixed & (i <= X)) | ((fixed | expo) & (i < nsig))
    for i in range(1, 17):  # the '.' before d_i
        m[..., _D0 + 2 * i - 1] = ((fixed & (i == X + 1)) | (expo & (i == 1))) & (i < nsig)
    for p in range(1, 6):  # "0.000"
        m[..., p] = (fixed & (p <= 1 - X) & (X < 0)) | ((c == 23) & (p == 1))
    m[..., _EXP] = m[..., _EXP + 1] = expo
    m[..., _EXP + 2] = (c == 22) | word
    m[..., _EXP + 3] = m[..., _EXP + 4] = expo | word
    m[1, ..., 0] = c != 25
    return (m.reshape(-1, _W) * np.uint8(0xFF)).view(np.uint64)


class _Tables:
    """Lookup tables of the array formatter; built on first use (about 2 ms)."""

    def __init__(self):
        hi, lo = [], []
        p = 10**-_S_MIN
        for _ in range(_S_MIN, 0):  # hi = 1/p and lo = 1/p - hi, both correctly rounded
            h = 1 / p
            hn, hd = h.as_integer_ratio()
            hi.append(h)
            lo.append(math.ldexp((hd - hn * p) / p, 1 - hd.bit_length()))
            p //= 10
        for _ in range(_S_MAX + 1):  # p = 10**s for s >= 0
            hi.append(float(p))
            lo.append(float(p - int(hi[-1])))
            p *= 10
        hi = np.array(hi)
        c = hi * _SPLIT
        hi_hi = c - (c - hi)
        # one row per power: hi, lo, and hi split into 26 + 27 bits
        self.powers = np.column_stack([hi, lo, hi_hi, hi - hi_hi])
        # word table: d0 (10 rows), then 4-digit groups (10000), then exponents
        dotted = np.full((10, 10, 10, 10, 8), ord("."), np.uint8)
        digit = np.arange(48, 58, dtype=np.uint8)
        for j in range(4):
            dotted[..., 2 * j] = digit.reshape((10,) + (1,) * (3 - j))
        exps = [b"e+inf", b"e+inf", b"e+nan"] + [b""] * (_X_OFF - 327)
        exps += [b"e%+04d" % X for X in range(-324, 309)]
        self.words = np.concatenate([
            _words(b"-0.000%d." % d for d in range(10)),
            dotted.reshape(-1).view(np.uint64),
            _words(exps),
        ])
        self.word_offset = np.array([0, 10, 10, 10, 10, 10010])
        # per group k = 0..3: 4k + its significant digits, 0 where the group is 0
        sig = np.full((10, 10, 10, 10), 4, np.int8)
        for j in range(1, 5):  # less one per trailing zero
            sig[(slice(None),) * (4 - j) + (0,) * j] -= 1
        sig = sig.reshape(-1)
        self.group_sig = [np.where(sig > 0, sig + 4 * k, 0).astype(np.int8) for k in range(4)]
        X = np.arange(len(exps)) - _X_OFF
        cls = np.where(np.abs(X) < 100, 21, 22)
        cls[(X >= -4) & (X <= 16)] = X[(X >= -4) & (X <= 16)] + 4
        cls[[_ZERO, _INF, _NAN]] = [23, 24, 25]
        self.row_class = cls * 17  # + nsig - 1 gives the mask row
        self.neg_offset = 26 * 17
        self.masks = _masks()


@functools.cache
def _tables() -> _Tables:
    return _Tables()


def _scaled(t: _Tables, ax, E):
    """ax * 10**(16 - E) as ph + pl: ph the rounded product, pl its error
    (Dekker's product with ax and the power split into 26 + 27 bits)."""
    p = t.powers.take(16 - _S_MIN - E, axis=0)
    a_hi = np.bitwise_and(ax.view(np.uint64), _HIGH_26).view(np.float64)
    a_lo = ax - a_hi
    ph = ax * p[:, 0]
    err = ((a_hi * p[:, 2] - ph) + a_hi * p[:, 3] + a_lo * p[:, 2]) + a_lo * p[:, 3]
    return ph, err + ax * p[:, 1]


def _fill17(x, sep, words):
    """Rows of '%.17g' % x[i], each followed by its separator byte.

    x is (n,), sep a word (or (n,) words) holding the separator at byte
    _SEP, and words an (n, 6) uint64 view that receives the rows; the
    bytes the text does not use are zero.
    """
    t = _tables()
    ax = np.abs(x)
    all_fast = ax.min() >= _LO and ax.max() <= _HI  # False on nan
    if not all_fast:
        fast = (ax >= _LO) & (ax <= _HI)
        ax = np.where(fast, ax, 1.0)
    E = np.floor(np.log10(ax)).astype(np.int64)
    # v = ph + pl: ph is an integer (it is above 2**53) and |pl| < 32
    ph, pl = _scaled(t, ax, E)
    edge = ph.min() <= 1e16 + 32 or ph.max() >= 1e17 - 32
    if edge:  # the products that may lie outside [1e16, 1e17) or round to 1e17
        i = np.flatnonzero((ph <= 1e16 + 32) | (ph >= 1e17 - 32))
        low = (ph[i] - 1e16) + pl[i] < 0
        high = (ph[i] - 1e17) + pl[i] >= 0
        E[i] += high.astype(np.int64) - low  # log10 missed the decade
        ph[i], pl[i] = _scaled(t, ax[i], E[i])
    nearest = np.rint(pl)
    D = ph.astype(np.int64)
    D += nearest.astype(np.int64)
    if edge:
        carry = D == 10**17
        D[carry] = 10**16
        E[carry] += 1
    row = E + _X_OFF
    near = np.abs(pl - nearest)
    if not all_fast or near.max() > 0.5 - _MARGIN:
        python = near > 0.5 - _MARGIN  # the fraction may be a tie
        if not all_fast:
            zero, nan, inf = x == 0, np.isnan(x), np.isinf(x)
            row[zero], row[nan], row[inf] = _ZERO, _NAN, _INF
            python |= ~(fast | zero | nan | inf)
        for i in np.flatnonzero(python).tolist():
            D[i], row[i] = _python_digits(x[i])
    idx = np.empty((len(x), 6), np.int64)
    r = np.empty_like(D)
    np.divmod(D, 10**16, out=(idx[:, 0], r))
    np.divmod(r, 10**12, out=(idx[:, 1], r))
    np.divmod(r, 10**8, out=(idx[:, 2], r))
    np.divmod(r, 10**4, out=(idx[:, 3], idx[:, 4]))
    idx[:, 5] = row
    # the significant digits end in the last nonzero group
    sig = t.group_sig[3].take(idx[:, 4])
    if not sig.all():
        for k in (2, 1, 0):
            np.maximum(sig, t.group_sig[k].take(idx[:, k + 1]), out=sig)
    cls = t.row_class.take(row)
    cls += sig
    if not all_fast or x.min() < 0:
        cls[np.signbit(x)] += t.neg_offset
    idx += t.word_offset
    t.words.take(idx, out=words, mode="clip")  # clip: unbuffered, and idx is in range
    words &= t.masks.take(cls, axis=0)
    words[:, 5] |= sep


def _python_digits(v: float):
    """D and exponent-table row of v from Python's own 17 significant digits."""
    mant, exp = ("%.16e" % abs(v)).split("e")
    return int(mant[0] + mant[2:]), int(exp) + _X_OFF


def _separator(byte: bytes) -> np.uint64:
    """The word with byte at _SEP and zeros elsewhere."""
    return _words([b"\0" * (_SEP - _EXP) + byte])[0]


def _text(words) -> bytes:
    """The bytes of rows of words without their zero bytes."""
    return words.tobytes().translate(None, b"\0")


def write_rows17(f, table, nodes=None):
    """Write the rows of table (R, K) as '%.17g' text, comma-separated,
    one line per row, to the binary file f.

    nodes, when given, is (g, labels, cols): the binary file g also gets a
    line `t,label,value` for each row and, in order, each label, where t is
    the row's column 0 and value its column cols[i] for labels[i].  Both
    files are written from one formatting of each chunk.
    """
    table = np.ascontiguousarray(table, dtype=float)
    R, K = table.shape
    rows = max(1, CHUNK // K)
    sep = np.full(rows * K, _separator(b","))
    sep[K - 1::K] = _separator(b"\n")
    words = np.empty((rows * K, 6), np.uint64)
    if nodes is not None:
        g, labels, cols = nodes
        label_words = _label_words(labels)
        # the value's separator ',' becomes '\n'; a value of the last column has it
        flip = np.where(np.equal(cols, K - 1), np.uint64(0), _separator(b",") ^ _separator(b"\n"))
        node_rows = max(1, CHUNK // (2 * len(cols)))  # a line holds two values
    for lo in range(0, R, rows):
        block = table[lo:lo + rows].ravel()
        n = len(block)
        _fill17(block, sep[:n], words[:n])
        f.write(_text(words[:n]))
        if nodes is not None:
            chunk = words[:n].reshape(-1, K, 6)
            for i in range(0, len(chunk), node_rows):
                g.write(_node_text(chunk[i:i + node_rows], cols, label_words, flip))


def _label_words(labels) -> np.ndarray:
    """The texts `label,` as rows of words, padded with zero bytes to one width."""
    texts = [f"{label},".encode() for label in labels]
    L = -(-max(len(s) for s in texts) // 8)  # words per label
    return _words(texts, 8 * L).reshape(len(texts), L)


def _node_text(words, cols, label_words, flip) -> bytes:
    """The lines `t,label,value` of the (rows, K, 6) words of rows of a
    table, one per row and label: a line is the words of column 0, the
    label's and those of column cols[i] with its separator XORed by flip[i].
    (Its buffers are gone before the next chunk is formatted.)"""
    L = label_words.shape[1]
    lines = np.empty((len(words), len(cols), 12 + L), np.uint64)
    lines[:, :, :6] = words[:, :1]
    lines[:, :, 6:6 + L] = label_words
    lines[:, :, 6 + L:] = words[:, cols]
    lines[:, :, -1] ^= flip
    return _text(lines)


# A block of states a time loop hands its observers (see advance) holds at
# most BLOCK_VALUES values over its rows, and at least one state of each.
# A block's reductions copy it transposed, so larger blocks cost memory: a
# run on the 2D n=24 slab mesh (N = 6912, 200 steps) peaked at 83.4 MB RSS
# with 8-state blocks and at 86.9 MB with 32.  Each block's reductions also
# cost a fixed time, so small states (a graph's) go many at a time
BLOCK_VALUES = 2**16


def block_states(k: int, N: int) -> int:
    """States per row in a block of k rows of N values (see BLOCK_VALUES)."""
    return max(1, BLOCK_VALUES // (k * N))


@dataclass
class Trajectory:
    """Uniform-in-time states: DG coefficients (mesh) or nodal values (graph).

    ``states`` holds the states of steps ``first_step`` ... n_steps, oldest
    first, so ``states[i]`` is the state at ``times[first_step + i]``: the
    window that ``advance`` held at the end, which ends with the final state
    (and holds every state, ``first_step`` 0, when the run is that short).
    """

    times: np.ndarray  # (n_steps + 1,)
    states: np.ndarray  # (n_steps + 1 - first_step, N)
    solver_stats: list = field(default_factory=list)
    first_step: int = 0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        n_states = self.times.shape[0] - self.first_step
        if not 0 < n_states == self.states.shape[0]:
            raise ValueError("states and times disagree on step count")
        if len(self.times) > 1:
            dts = np.diff(self.times)
            if not np.allclose(dts, dts[0], rtol=1e-12, atol=1e-12):
                raise ValueError("time grid is not uniform")

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def step_count(T: float, dt: float) -> int:
    """round(T/dt); raises ValueError unless T/dt is within a relative 1e-9 of an integer >= 1."""
    ratio = T / dt
    if round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9 * ratio:
        raise ValueError(
            f"T must be a whole number of steps dt, got T={T!r}, dt={dt!r} (T/dt={ratio!r})"
        )
    return round(ratio)


def advance(step, C0, alphas, dt: float, T: float, log, window: int, observers=()):
    """Run the time loop of k = len(alphas) rows from C0 up to final time T.

    The loop holds the rows' states in one (k, R, N) buffer, C0, (N,) or
    (k, N), broadcast into its first state.  ``step(history, alphas, t)``
    advances the live rows to time t: ``history`` is the buffer's view of
    their latest states, (live, h, N), oldest first and ending with C^n,
    so each step reads the earlier states it needs from it.  It returns
    (C_next, stats): the (live, N) block of C^{n+1} and one dict per row
    with "fallback", and "error" where its solve failed.  A row fails on an
    "error" or a non-finite state, and leaves with every row after it; the
    rows before it run on to T.

    ``window`` is the number of latest states a step reads.  R is
    window + B (or n_steps + 1 if that is fewer), B = block_states(k, N):
    the buffer holds those states and a block of at most B newer ones, so
    its size does not grow with the step count, and ``history`` holds the
    last min(n + 1, window) states.  A caller that needs every state
    gathers it from the observers' blocks.

    Each of ``observers`` is called with every block of states in time
    order, a (live, b, N) view valid only during the call: once B states
    have gathered since the last block, and once more after the last
    step.  The blocks of a row that runs to T hold its states C^0 ...
    C^{n_steps}, each once.

    Returns one Trajectory per row before the first that failed, its
    states a view of the states its buffer row holds at the end, from step
    ``first_step`` on, and that row's exception (its "error", or a
    FloatingPointError naming the step and t) or None.  Each returned row
    whose steps fell back to the sparse LU logs one warning on ``log``.
    """
    n_steps = step_count(T, dt)
    alphas = np.asarray(alphas, dtype=float)
    k = live = len(alphas)  # the rows still stepping are 0 .. live - 1
    N = np.shape(C0)[-1]
    block = block_states(k, N)
    buffer = np.empty((k, min(n_steps + 1, window + block), N))
    buffer[:, 0] = C0
    start, end = 0, 1  # the block is buffer[:, start:end], the latest state at end - 1
    stats = [[] for _ in range(k)]
    failure = None
    for n in range(n_steps):
        if end - start == block:
            for observe in observers:
                observe(buffer[:live, start:end])
            # the states the next steps read move to the front
            back = min(end, window)
            buffer[:live, :back] = buffer[:live, end - back : end]
            start = end = back
        t = (n + 1) * dt
        history = buffer[:live, max(end - window, 0) : end]
        nxt, step_stats = step(history, alphas[:live], t)
        finite = np.isfinite(nxt).reshape(live, -1).all(axis=1).tolist()
        for i in range(len(finite)):
            error = step_stats[i].get("error")
            if error is None and not finite[i]:
                error = FloatingPointError(f"non-finite state after step {n + 1} (t={t:g})")
            if error is not None:
                failure, live = error, i
                break
            stats[i].append(step_stats[i])
        if not live:
            break
        buffer[:live, end] = nxt[:live]
        end += 1
    if live:
        for observe in observers:
            observe(buffer[:live, start:end])
    for alpha, row in zip(alphas[:live].tolist(), stats):
        fallbacks = sum(st["fallback"] for st in row)
        if fallbacks:
            log.warning(
                "%d of %d steps fell back to the sparse LU (alpha=%g, dt=%g)",
                fallbacks, n_steps, alpha, dt,
            )
    times = dt * np.arange(n_steps + 1)
    first_step = n_steps + 1 - end
    return [
        Trajectory(times, buffer[i, :end], stats[i], first_step) for i in range(live)
    ], failure


def write_series_csv(path, times, columns: dict, nodes=None):
    """Write `t,<col>,...` series with overshoot warning rows.

    ``columns`` maps column name -> 1D array aligned with ``times``.
    ``nodes``, when given, is (node_path, labels, column_names): node_path
    gets the long-format lines `t,node_id,c` of each time and, in order,
    each label with the values of the column named at its position in the
    iterable column_names, from the same formatted text as path (see
    write_rows17).
    """
    names = list(columns)
    table = np.column_stack([np.asarray(times, dtype=float)] + [columns[n] for n in names])
    values = table[:, 1:]
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        raise ValueError(f"column {names[np.argmin(finite)]} contains non-finite values")
    # the out-of-range values, column by column and in time order within each
    bad_cols, bad_rows = np.nonzero(((values < OVERSHOOT_LOW) | (values > OVERSHOOT_HIGH)).T)
    warnings = [
        f"# warning: value out of range [-0.05, 1.05] at "
        f"t={fmt17(times[i])} column={names[j]}: {fmt17(values[i, j])}"
        for j, i in zip(bad_cols.tolist(), bad_rows.tolist())
    ]
    with open(path, "wb") as f:
        f.write(("\n".join(["t," + ",".join(names)] + warnings) + "\n").encode())
        if nodes is None:
            write_rows17(f, table)
        else:
            node_path, labels, node_columns = nodes
            column = dict(zip(names, range(1, len(names) + 1)))
            cols = np.array([column[name] for name in node_columns])
            del column  # not held while the files are written
            with open(node_path, "wb") as g:
                g.write(b"t,node_id,c\n")
                write_rows17(f, table, (g, labels, cols))
    if warnings:
        logger.warning("%s: %d out-of-range values flagged", path, len(warnings))


def read_series_csv(path):
    """Read back a `t,...` series CSV; returns (times, {name: values}).
    Malformed input raises ValueError naming the path and line."""
    with open(path) as f:
        lines = [(n, ln) for n, ln in enumerate(map(str.strip, f), start=1) if ln and ln[0] != "#"]
    header = lines[0][1].split(",") if lines else []
    if header[:1] != ["t"]:
        raise ValueError(f"{path}: not a series CSV (header {header[:3]}...)")
    if len(lines) == 1:
        raise ValueError(f"{path}: no data rows")
    rows = []
    for lineno, line in lines[1:]:
        where = f"{path}:{lineno}"
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if len(rows[-1]) != len(header):
            raise ValueError(f"{where}: {len(rows[-1])} fields, the header has {len(header)}")
    arr = np.array(rows)
    return arr[:, 0], {name: arr[:, i + 1] for i, name in enumerate(header[1:])}


STATE_MAGIC = "FKSTATE 1"


class StateDumps:
    """The full-state dumps of the rows of a time loop, written as the loop
    hands out its blocks of states.

    A dump is an ASCII header line `FKSTATE 1 <N> <n_steps>`, then the
    n_steps + 1 states, initial one included, as row-major little-endian
    doubles.  Each of ``rows`` dumps gets its header at once and, as an
    observer of ``advance``, the states of its row of every block.  A dump
    is written to an unnamed temporary file in ``directory``, so a row that
    fails or is never finished leaves nothing on disk; ``write_state_dump``
    puts a finished one at its path.  Closing (or leaving a ``with``
    block) discards every dump not yet put at its path.
    """

    def __init__(self, rows: int, N: int, n_steps: int, directory=None):
        self.n_states = n_steps + 1
        self.written = [0] * rows  # states of each row so far
        self.files = []
        try:
            for _ in range(rows):
                self.files.append(tempfile.TemporaryFile(dir=directory))
                self.files[-1].write(f"{STATE_MAGIC} {N} {n_steps}\n".encode("ascii"))
        except BaseException:
            self.close()
            raise

    def __call__(self, block):
        """Append each row's (b, N) states of the (live, b, N) block."""
        for row, (f, states) in enumerate(zip(self.files, block)):
            # the array's own buffer: no copy of the states when they are
            # already C-ordered little-endian doubles
            f.write(memoryview(np.ascontiguousarray(states, dtype="<f8")))
            self.written[row] += len(states)

    def close(self):
        for f in self.files:
            f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_state_dump(path, dumps: StateDumps, row: int):
    """Put the finished dump of row ``row`` of dumps at path, and close its
    temporary file.  The dump must hold all its n_steps + 1 states."""
    written = dumps.written[row]
    if written != dumps.n_states:
        raise ValueError(f"a state dump needs all {dumps.n_states} states, it holds {written}")
    with dumps.files[row] as source, open(path, "wb") as f:
        source.seek(0)
        shutil.copyfileobj(source, f)


def read_state_dump(path):
    with open(path, "rb") as f:
        header = f.readline().decode("ascii").strip()
        parts = header.split()
        if " ".join(parts[:2]) != STATE_MAGIC or len(parts) != 4:
            raise ValueError(f"{path}: bad state-dump header {header!r}")
        N, n_steps = int(parts[2]), int(parts[3])
        payload = f.read()
    expected = (n_steps + 1) * N * 8
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload has {len(payload)} bytes, expected {expected}"
        )
    states = np.frombuffer(payload, dtype="<f8").reshape(n_steps + 1, N)
    return states


def first_crossing(times, values, level) -> float | None:
    """First time the series reaches `level`, linearly interpolated.

    Returns None when the series never reaches the level; raises
    ValueError when times and values differ in length.
    """
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    if len(times) != len(values):
        raise ValueError(f"{len(times)} times but {len(values)} values")
    at_or_above = values >= level
    if not at_or_above.any():
        return None
    k = int(np.argmax(at_or_above))
    if k == 0:
        return float(times[0])
    t0, t1 = times[k - 1], times[k]
    v0, v1 = values[k - 1], values[k]  # v0 < level <= v1
    return float(t0 + (level - v0) * (t1 - t0) / (v1 - v0))
