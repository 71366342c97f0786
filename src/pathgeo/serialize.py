"""Deterministic serialization: JSON, CSV, and OBJ export, streamed.

All floating-point values are written in decimal with 17 significant
digits (``%.17g``), which round-trips IEEE doubles exactly, and JSON object
keys are sorted, so identical inputs produce byte-identical files. One row
formatter, ``_float_rows``, writes every array: it formats a whole 2-d
slab in numpy and returns exactly the text of one %-format call of a
repeated row template (JSON, CSV, OBJ vertex or OBJ face), after one
finiteness check per array, made before its first slab. OBJ face indices
are integers held as floats, which ``%.17g`` writes with the digits of
``%d``. There is one block walk, ``_blocked``: every array of a worldsheet
(JSON ``points`` and ``velocities``, CSV rows, OBJ vertices and faces) is
formatted one block of whole fibers (or of strips of faces) per call, the
blocks of ``pathspace.build_sheet`` (``pathspace._blocks``). A
scalar is formatted by ``format_float``.

Each format is one generator of text pieces (``json_pieces``,
``path_csv_pieces``, ``sheet_csv_pieces``, ``sheet_obj_pieces``) that
yields at most one formatted block at a time, so a sheet is written one
block of fibers at a time and its whole text never exists in memory:
``dump(obj, fh)`` writes the JSON pieces to a file, and ``dumps``,
``path_to_csv``, ``sheet_to_csv`` and ``sheet_to_obj`` join the same pieces
into one string.

The format generators do not format a slab themselves: they yield it as a
deferred ``_float_rows`` call, and one function, ``_text``, turns that
stream into the text pieces, in order; it shares the slabs of a worldsheet
array of more than one block with one helper process (``_fork``). The text
is the same byte for byte.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import json
import math
import os

import numpy as np

from . import _fork
from . import category as cat
from . import manifold as mf
from .manifold import DomainError
from .path import DiscretePath, PathTangentField
from .pathspace import _blocks

_FLOAT = "%.17g"


def format_float(x):
    """Decimal representation with 17 significant digits (exact round-trip)."""
    x = float(x)
    if not math.isfinite(x):
        raise _non_finite(x)
    return _FLOAT % x


def _non_finite(x):
    return DomainError("cannot serialize NaN" if math.isnan(x) else "cannot serialize infinity")


def _finite(a):
    """``a``, after one check that every entry is finite; the error names
    the first entry that is not, in C order."""
    if not np.isfinite(a).all():
        raise _non_finite(a[~np.isfinite(a)][0])
    return a


# ---------------------------------------------------------------------------
# %.17g over a whole slab
# ---------------------------------------------------------------------------


@functools.cache
def _digit_tables():
    """The tables of ``_float_rows``, built on first use.

    ``groups`` holds the text of every digit group as one NUL-padded uint32,
    in sections of 1000 entries indexed by the group's value; each section
    is followed by its variant with the trailing fraction zeros stripped
    (and the decimal point too, if no digit follows it). A value's 17
    digits d0..d16 form group 0 (d0 d1, after the zeros of ``0.000`` that
    the head does not hold) and groups 1-5 (three digits each). For each
    exponent X in -4..15, ``sections[X + 4]`` gives the section of each
    group: integer digits, fraction digits, or digits with the point before
    digit k; ``heads[2 * (X + 4) + negative]`` is the sign and the start of
    ``0.`` or ``0.0``.
    """
    built = {
        "g0.int": _section(2, 2),
        "g0.point": _section(2, 1, point=1),
        **{"g0.frac%d" % z: _section(2, 0, zeros=z) for z in range(3)},
        "int": _section(3, 3),
        "frac": _section(3, 0),
        **{"point%d" % k: _section(3, k, point=1) for k in range(3)},
    }
    start = {name: 2000 * i for i, name in enumerate(built)}
    sections, heads = [], []
    for X in range(-4, 16):
        g0 = "g0.frac%d" % max(-X - 2, 0) if X < 0 else "g0.point" if X == 0 else "g0.int"
        # group m holds digits 3m-1..3m+1; the point goes before digit X+1,
        # which is digit k = X+2-3m of the group
        ks = [X + 2 - 3 * m for m in range(1, 6)]
        rest = ["frac" if k < 0 else "int" if k > 2 else "point%d" % k for k in ks]
        sections.append([start[name] for name in [g0] + rest])
        head = "0." + "0" * min(-X - 1, 1) if X < 0 else ""
        heads += [head, "-" + head]
    return (np.concatenate(list(built.values())), np.array(sections, dtype=np.intp), _uint32s(heads),
            np.array([10.0**p for p in range(23)]))


def _section(width, frac, point=0, zeros=0):
    """One section of ``_digit_tables``, built in numpy: the text of each
    value below ``10**width`` as ``width`` digits after ``zeros`` zeros,
    with a point before digit ``frac`` if ``point`` is 1; then the same
    texts with the digits from ``frac`` on stripped of trailing zeros (and
    the point too, if no digit follows it). Each half is 1000 NUL-padded
    uint32, the values' texts first, as ``_uint32s`` encodes them."""
    n = 10**width
    v = np.arange(n)[:, None]
    digits = v // 10 ** np.arange(width - 1, -1, -1) % 10
    chars = np.concatenate([np.full((n, zeros), ord("0")), digits[:, :frac] + ord("0"),
                            np.full((n, point), ord(".")), digits[:, frac:] + ord("0")], axis=1)
    # fraction digit j stays if digits j.. are not all zero, and the point if
    # the first fraction digit does: what stays is a prefix of the text
    tail = v % 10 ** np.arange(width - frac, 0, -1) != 0
    stays = np.concatenate([np.ones((n, zeros + frac), bool), tail[:, :point], tail], axis=1)
    text = np.zeros((2, 1000, 4), np.uint8)
    text[:, :n, : chars.shape[1]] = chars, chars * stays
    return text.view(np.uint32).ravel()


def _uint32s(texts, width=1):
    """Each ASCII text (at most ``4 * width`` bytes) as ``width`` uint32
    units, NUL-padded."""
    return np.frombuffer("".join(t.ljust(4 * width, "\0") for t in texts).encode(), dtype=np.uint32)


def _halves(a):
    """Veltkamp's split of ``a`` into two doubles of at most 26 bits each."""
    t = a * 134217729.0  # 2**27 + 1
    high = t - (t - a)
    return high, a - high


def _float_rows(a, template, sep, fiber=None):
    """``sep.join([template] * len(a)) % tuple(a.ravel())``, byte for byte,
    for a 2-d array ``a`` of finite floats and a row ``template`` of
    ``%.17g`` slots in literal text without ``%``. A nonempty ``a`` may hold
    whole fibers of m rows each, with ``fiber = (m, fiber_sep)``: then
    ``fiber_sep`` and not ``sep`` comes before every m-th row.

    Each value fills a fixed slot of uint32 units: the literal before it,
    its head (sign, ``0.`` or ``0.0``) and its six digit groups, read from
    ``_digit_tables``; unused bytes are NUL, and one ``bytes.translate``
    removes them. A value with 1e-4 <= |x| < 1e16 has X = floor(log10|x|)
    and 17 digits D = round-half-even(|x| 10^(16-X)): 10^(16-X) is an exact
    double, so the product is exactly hi + lo (Dekker), and hi >= 2^53 is
    an even integer, so ``rint(lo)`` rounds D correctly. It is checked
    exactly that 1e16 <= hi + lo and D < 1e17; a value that fails (log10
    off by one), and every value outside that range but zero, is formatted
    by ``%.17g`` itself. Zero is ``0`` or ``-0``.
    """
    rows, cols = a.shape
    if not a.size:
        return sep.join([template] * rows)
    groups, sections, heads, pow10 = _digit_tables()
    lits = template.split(_FLOAT)
    starts = [lits[-1] + sep + lits[0]]  # the literals before a row's first value
    if fiber and rows > fiber[0]:
        starts.append(lits[-1] + fiber[1] + lits[0])
    # units per literal, from the literals this slab uses: a slab of one
    # fiber is as wide as without ``fiber``
    w = -(-max(map(len, lits + starts)) // 4)
    x = np.asarray(a, dtype=float).ravel()
    ax = np.abs(x)
    with np.errstate(divide="ignore"):
        e = np.floor(np.log10(ax))
    fast = (e >= -4) & (e <= 15)
    ax[~fast] = 0.0  # digits 0: zero, or formatted by %.17g below
    k = np.where(fast, e, 0).astype(np.intp) + 4
    p = pow10[20 - k]
    hi = ax * p
    a1, a2 = _halves(ax)
    p1, p2 = _halves(p)
    lo = ((a1 * p1 - hi) + a1 * p2 + a2 * p1) + a2 * p2
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    exact = ((hi > 1e16) | ((hi == 1e16) & (lo >= 0))) & (digits < 10**17)
    index = sections[k]
    rest = digits
    for m, scale in enumerate((10**15, 10**12, 10**9, 10**6, 10**3, 1)):
        group = rest // scale
        rest = rest - group * scale
        index[:, m] += group + 1000 * (rest == 0)
    slots = np.empty((rows, cols, w + 7), dtype=np.uint32)
    slots[..., w + 1 :] = groups[index].reshape(rows, cols, 6)
    slots[..., w] = heads[2 * k + np.signbit(x)].reshape(rows, cols)
    slots[..., :w] = _uint32s(lits[:cols], w).reshape(cols, w)
    slots[1:, 0, :w] = _uint32s(starts[:1], w)
    if len(starts) > 1:
        slots[fiber[0] :: fiber[0], 0, :w] = _uint32s(starts[1:], w)
    slots = slots.reshape(-1, w + 7)
    other = np.flatnonzero(~exact & (x != 0))
    if other.size:
        slots[other, w:] = _uint32s([_FLOAT % v for v in x[other].tolist()], 7).reshape(-1, 7)
    return slots.tobytes().translate(None, b"\0").decode("ascii") + lits[-1]


def _joined(parts, sep, open_="", close=""):
    """Pieces of ``open_ + sep.join(parts) + close``, each part an iterable
    of pieces."""
    yield open_
    for i, part in enumerate(parts):
        if i:
            yield sep
        yield from part
    yield close


# ---------------------------------------------------------------------------
# the text of a stream of pieces, on one or two CPUs
# ---------------------------------------------------------------------------

# comes before the deferred slabs of a worldsheet array of more than one block
_WIDE = object()
# pieces this process holds, formatted, behind a slab the helper has yet to
# send: about four slabs
_AHEAD = 8


def _text(pieces):
    """The text of ``pieces``, in order, one piece at a time. A piece is
    text, ``_WIDE``, or a deferred slab: a ``functools.partial`` that
    returns text: a 2-d array's ``_float_rows``, or a block's slab
    (``_blocked``).

    At the first ``_WIDE``, if this process may run on more than one CPU,
    one helper process is forked (``_fork._forked``). It inherits the state
    of the stream and draws the same slabs (``_fork._serve``); from there on
    each slab is formatted by the process that claims it first
    (``_shared``), so on two free CPUs each formats about every other slab,
    and on one busy CPU the other takes more. The helper sends the bytes of
    its slabs through its pipe, and this process yields every piece in
    order. The helper is killed and reaped when the stream ends, fails or
    is closed; a helper that exits before it has sent a slab it claimed is
    a ChildProcessError. Without a helper (one CPU, no ``_WIDE``, or a
    failed fork) every slab is formatted here.
    """
    pieces = iter(pieces)
    with contextlib.ExitStack() as helper:
        for piece in pieces:
            if isinstance(piece, str):
                yield piece
            elif piece is not _WIDE:
                yield piece()
            elif len(os.sched_getaffinity(0)) > 1:  # _shared draws the rest
                serve = functools.partial(_fork._serve, (p for p in pieces if callable(p)), str.encode)
                try:
                    claims, (r,) = helper.enter_context(_fork._forked(1, serve))
                except OSError:  # no helper: the slabs are formatted here
                    continue
                yield from _shared(pieces, r, claims)


def _shared(pieces, r, claims):
    """The text of the rest of ``pieces``, in order, while the helper draws
    them too. This process formats the slabs it claims, and reads the
    others from the pipe ``r`` in turn; while the next of those is not
    there yet, it draws on and formats the slabs after it that it can
    claim, holding at most ``_AHEAD`` pieces. A stream that fails yields
    every piece before the failure first, as without the helper."""
    queue, k = collections.deque(), 0  # text, or None for a slab the helper took
    sent = _fork._poll([r])

    def ready():
        return queue and (queue[0] is not None or len(queue) > _AHEAD or sent.poll(0))

    def first():
        head = queue.popleft()
        return _received(r) if head is None else head

    try:
        for piece in pieces:
            if callable(piece):
                k += 1
                queue.append(piece() if _fork._claim(claims, k) else None)
            elif piece is not _WIDE:
                queue.append(piece)
            while ready():
                yield first()
    except Exception:
        while queue:
            yield first()
        raise
    while queue:
        yield first()


def _received(r):
    """The text of the next slab the helper sent through the pipe ``r``."""
    try:
        return _fork._message(r).decode()
    except EOFError:
        raise ChildProcessError("the export helper exited before it sent a slab") from None


def _blocked(count, width, slab, sep):
    """Pieces of ``count`` fibers of ``width`` nodes each: one deferred
    ``slab(block)`` per block of whole fibers (``_blocks``), joined by
    ``sep``, after ``_WIDE`` if there is more than one block."""
    blocks = _blocks(0, count, width)
    if len(blocks) > 1:
        yield _WIDE
    for k, block in enumerate(blocks):
        if k:
            yield sep
        yield functools.partial(slab, block)


def _json_floats(a):
    """Pieces of the nested JSON lists of a finite float array of rank >= 1;
    a nonempty 3-d array one block of whole fibers at a time, its fiber
    boundary ``]], [[`` a second row literal of ``_float_rows``."""
    if a.ndim > 3 or (a.ndim == 3 and not a.size):
        yield from _joined(map(_json_floats, a), ", ", "[", "]")
        return
    template = "[" + ", ".join([_FLOAT] * a.shape[-1]) + "]"
    if a.ndim == 3:
        m, cols = a.shape[1:]

        def slab(block):
            return _float_rows(a[block].reshape(-1, cols), template, ", ", (m, "], ["))

        yield from _joined([_blocked(len(a), m, slab, "], [")], "", "[[", "]]")
        return
    rows = [functools.partial(_float_rows, np.atleast_2d(a), template, ", ")]
    yield from rows if a.ndim == 1 else _joined([rows], "", "[", "]")


def _json(obj):
    """Pieces of the JSON text of ``obj``, without the final newline."""
    if isinstance(obj, dict):
        members = (itertools.chain([json.dumps(str(k)) + ": "], _json(v)) for k, v in sorted(obj.items()))
        yield from _joined(members, ", ", "{", "}")
        return
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim:
            yield from _json_floats(_finite(obj))
            return
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        yield from _joined(map(_json, obj), ", ", "[", "]")
    elif isinstance(obj, (bool, np.bool_)):
        yield "true" if obj else "false"
    elif isinstance(obj, (int, np.integer)):
        yield str(int(obj))
    elif isinstance(obj, (float, np.floating)):
        yield format_float(obj)
    elif obj is None:
        yield "null"
    elif isinstance(obj, str):
        yield json.dumps(obj)
    else:
        raise DomainError("cannot serialize %r" % type(obj).__name__)


def json_pieces(obj):
    """Pieces of the deterministic JSON text of ``obj`` (sorted keys,
    17-significant-digit floats, final newline)."""
    return _text(itertools.chain(_json(obj), ["\n"]))


def dump(obj, fh):
    """Write the JSON text of ``obj`` to the text file ``fh``, one piece at
    a time; the file receives exactly ``dumps(obj)``. The pieces are closed
    on the way out, so an export helper ends with a failed write too."""
    with contextlib.closing(json_pieces(obj)) as pieces:
        for piece in pieces:
            fh.write(piece)


def dumps(obj):
    """Deterministic JSON text (sorted keys, 17-significant-digit floats)."""
    return "".join(json_pieces(obj))


def _parse_int(text):
    return -0.0 if text == "-0" else int(text)


def loads(text):
    """The record of the JSON ``text``, as ``json.loads`` reads it except
    that ``-0``, which the writers write for the float -0.0, is -0.0 and not
    the integer 0; so ``loads(dumps(r))`` keeps the sign of every zero."""
    return json.loads(text, parse_int=_parse_int)


# ---------------------------------------------------------------------------
# CSV and OBJ
# ---------------------------------------------------------------------------


def _csv(head, dim):
    """The header line of the columns ``head``,x1,...,x``dim``, and the
    template of a row: one ``%.17g`` slot per column."""
    names = head + ["x%d" % (k + 1) for k in range(dim)]
    return ",".join(names) + "\n", ",".join([_FLOAT] * len(names))


def path_csv_pieces(gamma):
    """Pieces of ``path_to_csv(gamma)``."""
    header, template = _csv(["t"], gamma.manifold.point_dim)
    rows = functools.partial(_float_rows, np.column_stack([gamma.grid, _finite(gamma.samples)]), template, "\n")
    return _text([header, rows, "\n"])


def path_to_csv(gamma):
    """Rows t,x1,...,xd with a header line."""
    return "".join(path_csv_pieces(gamma))


def sheet_csv_pieces(sheet):
    """Pieces of ``sheet_to_csv(sheet)``, one block of fibers at a time: the
    s,t,x rows of a block are built only by the process that formats its
    slab."""
    x, s_nodes, n = _finite(sheet.points), sheet.s_nodes, sheet.n_t_segments
    t = np.arange(n + 1) / n
    header, template = _csv(["s", "t"], sheet.manifold.point_dim)

    def slab(block):
        fibers = x[block]
        lead = [np.repeat(s_nodes[block], n + 1), np.tile(t, len(fibers))]
        return _float_rows(np.column_stack(lead + [fibers.reshape(-1, x.shape[-1])]), template, "\n")

    return _text(itertools.chain([header], _blocked(len(x), n + 1, slab, "\n"), ["\n"]))


def sheet_to_csv(sheet):
    """Rows s,t,x1,...,xd with a header line, s-major order."""
    return "".join(sheet_csv_pieces(sheet))


def sheet_obj_pieces(sheet):
    """Pieces of ``sheet_to_obj(sheet)``, one block of fibers (or of strips
    of faces) at a time. A block of faces is a deferred slab of its integer
    indices held as floats, which ``%.17g`` writes with the digits of ``%d``
    below 2**53, so the export helper of a wide sheet shares the faces too."""
    if not sheet.manifold.embedded_3d:
        raise DomainError("OBJ export needs an embedded 3d manifold (euclidean(3) or sphere)")
    x, n, S = _finite(sheet.points), sheet.n_t_segments, sheet.n_s_segments
    a = np.arange(n) + 1.0  # OBJ indices are 1-based
    strip = np.stack([a, a + 1, a + (n + 1) + 1, a + (n + 1)], axis=-1)
    vertex, face = " ".join(["v"] + [_FLOAT] * 3), " ".join(["f"] + [_FLOAT] * 4)

    def vertices(block):
        return _float_rows(x[block].reshape(-1, 3), vertex, "\n")

    def faces(block):
        strips = strip + (n + 1) * np.arange(block.start, block.stop)[:, None, None]
        return _float_rows(strips.reshape(-1, 4), face, "\n")

    parts = [_blocked(S + 1, n + 1, vertices, "\n")]
    if S:  # a sheet of one fiber has no faces
        parts.append(_blocked(S, n, faces, "\n"))
    return _text(_joined(parts, "\n", "", "\n"))


def sheet_to_obj(sheet):
    """Quad mesh over the (s, t) grid in embedding coordinates.

    Available for manifolds whose stored coordinates are an embedding in
    3-space: euclidean(3) and the sphere.
    """
    return "".join(sheet_obj_pieces(sheet))


# ---------------------------------------------------------------------------
# morphism records
# ---------------------------------------------------------------------------


def morphism1_to_json(m):
    return {
        "kind": "morphism1",
        "path": m.path.to_json(),
        "field": m.field.components,
        "time": m.time,
    }


def morphism1_from_json(obj):
    keys = ("kind", "path", "field", "time")
    mf.only_keys("morphism1 key", obj, keys, keys)
    if obj["kind"] != "morphism1":
        raise DomainError("morphism1 record kind must be 'morphism1' (got %r)" % (obj["kind"],))
    base = DiscretePath.from_json(obj["path"])
    field = PathTangentField(base, np.array(obj["field"], dtype=float))
    return cat.GeodMorphism1(field, obj["time"])


def morphism2_to_json(F):
    """The record of ``F``: its seed and s-nodes, which determine its sheet."""
    return {
        "kind": "morphism2",
        "seed": morphism1_to_json(F.seed),
        "s_nodes": F.sheet.s_nodes,
    }


def morphism2_from_json(obj):
    """The 2-morphism of the record's seed over its s-nodes. A key other than
    ``kind``, ``seed`` and ``s_nodes`` (such as a stored ``sheet``) is an
    error naming it, and so is a missing one of them."""
    keys = ("kind", "seed", "s_nodes")
    mf.only_keys("morphism2 key", obj, keys, keys)
    given = obj["s_nodes"]
    if not np.iterable(given) or isinstance(given, (str, bytes)):
        raise DomainError("s_nodes must be a list of numbers (got %r)" % (given,))
    s_nodes = np.array([mf.as_number("s_nodes", s, finite=True) for s in given])
    return cat.GeodMorphism2(morphism1_from_json(obj["seed"]), s_nodes)


def morphism_from_json(obj):
    if not isinstance(obj, dict):
        raise DomainError("a morphism record is a JSON object, not %s" % type(obj).__name__)
    kind = obj.get("kind")
    if kind == "morphism1":
        return morphism1_from_json(obj)
    if kind == "morphism2":
        return morphism2_from_json(obj)
    raise DomainError("unknown morphism record kind %r" % (kind,))
