"""Text formats and deterministic CSV emission.

Graph file (line oriented, ``#`` comments):
    graph <num_vertices_hint>
    v <label> <mu>
    e <label> <label> <omega>
Domain file: lines ``omega <label>``. Field file: lines ``<label> <value>``
with unlisted vertices defaulting to 0. Labels are ints, comma-joined int
tuples like ``0,1``, or plain strings; a vertex has at most one ``v`` line
in a graph file and one line in a field file. A domain or field file
names a vertex by any token that reads as its label (``01`` names vertex
1); ``WeightedGraph.vertex_named`` parses each token once per graph.

The three readers read a file in bulk, in blocks of lines (comment and
blank lines included): each column goes through one ``float`` or lookup
pass, the distinct label tokens of a graph file are parsed together by
``parse_labels`` (one pattern match, one ``np.fromstring`` and one
``np.lexsort`` when they are ints or int tuples of one length as
``format_label`` writes them), and the graph is built from vertex ids by
``graph_from_ids``. A graph read from a file keeps every ``v`` token
for ``vertex_named``, and its tokens as ``names`` when each is its label
as ``format_label`` writes it, so a domain or field file in the same
spelling is read without parsing a label again. When the bulk pass finds
a faulty record, the line loop (``_raise_line_fault``) reads the file
again only to name the first faulty line; it never builds a result.

Trajectory CSV: the header ``i,t,vertex,value``, then one row per step
and vertex, with the step index, its time, the vertex's label (quoted
when it holds a comma, a quote or a line break) and its value. The writer
emits the steps in order, each step's rows in vertex order, and a line
feed after each row. The reader first tries that layout on the graph
(``_writer_steps``): each step's lines are checked against the step's
index, its time and the label cells by two ``startswith`` passes, and the
values are read by one ``float`` pass. Any other file (rows in another
order, labels or step indices spelled another way, quoted numbers,
carriage returns, a cell over the ``csv`` field size limit) is split by
``csv.reader`` and read by one loop over its rows, which also names its
faults. Numbers are read by ``float()`` on both paths, so a value or time
is any token ``float()`` reads as a finite number (``1_0``, ``+3`` and a
number after spaces too, ``0x1p3`` and ``nan`` not). A label cell names a
vertex by its label as written or by any token that reads as that label
(``02`` and ``+2`` name vertex 2).
Every row has four cells, steps are numbered from 0 and first appear in
order, every row of a step carries its time and a finite value, and no
vertex has two rows in one step. The error for a file that breaks these
rules names a row, as ``path:row`` with the header as row 1: the first
row with a bad cell count, step or value, or, in a file with none, the
first row that repeats a vertex of its step. Each step must then name
every vertex of the graph and no other, or the file does not match the
graph.

Table CSV (every other CSV output, and ``compare``'s table): a header
row, then one row per entry, formatted whole by ``csv_text`` from a
``{header: column}`` mapping: integers in decimal, floats by ``fmt``,
and an empty cell where a value is undefined.

All floats are written with shortest round-trip decimal formatting, and
files are written to a temp name then atomically moved into place.
"""

from __future__ import annotations

import array
import csv
import hashlib
import itertools
import json
import math
import operator
import os

import numpy as np

from .calculus import VertexField
from .errors import (
    GraphMismatch,
    GraphrotheError,
    InvalidGraphData,
    IoError,
)
from .graph import (  # noqa: F401
    format_label,
    graph_from_ids,
    parse_label,
    parse_labels,
)


def fmt(x):
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


class _Text:
    """The file at ``path`` open as UTF-8 text in a ``with`` block. A
    failed read raises IoError, and a byte that is not UTF-8
    InvalidGraphData with its offset in the file."""

    def __init__(self, path, newline=None):
        self.path = path
        self.newline = newline

    def __enter__(self):
        try:
            self.fh = open(self.path, "r", encoding="utf-8",
                           newline=self.newline)
        except OSError as exc:
            raise IoError(f"cannot read {self.path}: {exc}") from None
        return self.fh

    def __exit__(self, kind, exc, tb):
        try:
            with self.fh as fh:
                if isinstance(exc, UnicodeDecodeError):
                    # the decoder's bytes end where the file has been read to
                    at = fh.buffer.tell() - len(exc.object) + exc.start \
                        if fh.seekable() else exc.start
                    raise InvalidGraphData(
                        f"{self.path}: not UTF-8 text ({exc.reason} at byte "
                        f"{at})") from None
        except OSError as err:
            exc = err
        if isinstance(exc, OSError):
            raise IoError(f"cannot read {self.path}: {exc}") from None


def _lines(path):
    """(line number, tokens) of each line with a token outside its ``#``
    comment."""
    with _Text(path) as fh:
        raw = fh.readlines()
    for lineno, line in enumerate(raw, 1):
        if "#" in line:
            line = line.partition("#")[0]
        parts = line.split()
        if parts:
            yield lineno, parts


def _row_blocks(path):
    """The tokens of each line with a token outside its ``#`` comment, as
    lists of rows, one list per block of about ``_BLOCK`` characters of
    lines."""
    with _Text(path) as fh:
        while lines := fh.readlines(_BLOCK):
            if "#" in "".join(lines):
                lines = [line.partition("#")[0] for line in lines]
            rows = list(filter(None, map(str.split, lines)))
            del lines
            yield rows


# characters of lines a bulk reader holds at a time
_BLOCK = 1 << 13


def _raise_line_fault(path, check):
    """Raise for the first line of the file at ``path`` that ``check``
    refuses (it raises ValueError or InvalidGraphData on the line's
    tokens), with the file's name and the line. Only diagnoses a file
    that a bulk reader found faulty: it builds no result."""
    for lineno, parts in _lines(path):
        try:
            check(parts)
        except (ValueError, InvalidGraphData) as exc:
            raise InvalidGraphData(f"{path}:{lineno}: {exc}") from None
    raise AssertionError(f"{path}: no line of the file is faulty")


def _graph_line():
    """The check of each graph-file record in turn."""
    seen = set()  # the labels of the v records so far

    def check(parts):
        kind = parts[0]
        if kind == "e" and len(parts) == 4:
            float(parts[3])
        elif kind == "v" and len(parts) == 3:
            label = parse_label(parts[1])
            float(parts[2])
            if label in seen:
                raise ValueError(f"vertex {label!r} listed twice")
            seen.add(label)
        elif kind != "graph" or len(parts) != 2:
            raise ValueError("unrecognized record")
    return check


def _graph_records(path):
    """A graph file's records read in bulk: (tokens, mu, ends, late, w,
    header). Line k of the ``v`` lines names ``tokens[k]`` with measure
    ``mu[k]``; ends[0] and ends[1] hold the ``v`` line of each edge's
    endpoints (-1 where the token is on no ``v`` line), ``late`` the
    (end, edge, token) of each of those, and ``w`` the weights. None when
    a record is faulty."""
    tokens, mus, ends, ws, late = [], [], [], [], []
    line_of = {}
    header = False
    for rows in _row_blocks(path):
        counts = np.bincount(np.fromiter(map(len, rows), np.intp,
                                         len(rows)), minlength=5)
        if counts[2:5].sum() != len(rows):
            return None
        rows.sort(key=len)
        heads, vs = rows[:counts[2]], rows[counts[2]:counts[2] + counts[3]]
        es = rows[counts[2] + counts[3]:]
        try:
            if heads:
                kinds, _ = zip(*heads)
                if kinds.count("graph") != len(kinds):
                    return None
                header = True
            if vs:
                kinds, labs, values = zip(*vs)
                if kinds.count("v") != len(kinds):
                    return None
                mus.append(np.fromiter(map(float, values), float, len(vs)))
                line_of.update(zip(labs, range(len(tokens),
                                               len(tokens) + len(vs))))
                tokens.extend(labs)
                if len(line_of) != len(tokens):
                    return None
            if es:
                kinds, xs, ys, values = zip(*es)
                if kinds.count("e") != len(kinds):
                    return None
                ws.append(np.fromiter(map(float, values), float, len(es)))
                edge0 = sum(map(len, ws)) - len(es)
                pair = np.empty((2, len(es)), np.int64)
                for end, labs in enumerate((xs, ys)):
                    pair[end] = np.fromiter(
                        map(line_of.get, labs, itertools.repeat(-1)),
                        np.int64, len(es))
                    late.extend((end, edge0 + k, labs[k]) for k in
                                np.flatnonzero(pair[end] < 0).tolist())
                ends.append(pair)
        except ValueError:
            return None
    ends = np.concatenate(ends, axis=1) if ends else np.empty((2, 0),
                                                              np.int64)
    for end, k, token in late:
        ends[end, k] = line_of.get(token, -1)
    late = [entry for entry in late if ends[entry[0], entry[1]] < 0]
    return (tokens, np.concatenate(mus) if mus else np.empty(0), ends, late,
            np.concatenate(ws) if ws else np.empty(0), header)


def read_graph_file(path):
    """The graph of a graph file. A malformed or repeated record, and a
    graph that ``build_finite_graph`` refuses, raise with the file's name
    (and the line, for a record) in the message.

    The records are read in bulk (``_graph_records``), each distinct
    label token is parsed once (``parse_labels``), and the graph is built
    by ``graph_from_ids``; a graph whose tokens are canonical keeps them
    as its ``names``, and every ``v`` token is kept for ``vertex_named``."""
    records = _graph_records(path)
    if records is not None:
        tokens, mu, ends, late, w, header = records
        labels, order, canonical = parse_labels(tokens)
        index = dict(zip(labels, range(len(labels))))
        if len(index) < len(labels):
            records = None
    if records is None:
        _raise_line_fault(path, _graph_line())
    if not header:
        raise InvalidGraphData(f"{path}: missing 'graph <n>' header")
    n = len(labels)
    vid = np.empty(n + 1, np.int64)
    vid[order] = np.arange(n)
    vid[n] = -1
    ids = vid[ends]
    # an endpoint token on no v line names the vertex of its label, if any
    unknown = {}
    if late:
        strays = list(dict.fromkeys(token for _, _, token in late))
        parsed, at, _ = parse_labels(strays)
        label_of = dict(zip([strays[k] for k in at.tolist()], parsed))
        for end, k, token in late:
            label = unknown[end, k] = label_of[token]
            ids[end, k] = index.get(label, -1)

    def edge_at(k):
        x, y = (labels[i] if i >= 0 else unknown[end, k]
                for end, i in enumerate(ids[:, k].tolist()))
        return x, y, w[k]

    try:
        return graph_from_ids(
            labels, mu[order], lambda: (ids[0], ids[1], w, edge_at), index,
            [tokens[k] for k in order.tolist()] if canonical else None,
            dict(zip(tokens, vid[:n].tolist())))
    except GraphrotheError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def write_graph_file(g, path):
    lines = [f"graph {g.num_vertices}"]
    names = g.names
    lines.extend(f"v {name} {mu}"
                 for name, mu in zip(names, map(repr, g.mu.tolist())))
    rows = np.repeat(np.arange(g.num_vertices), np.diff(g.indptr))
    upper = rows < g.indices
    lines.extend(f"e {names[i]} {names[j]} {w}" for i, j, w in
                 zip(rows[upper].tolist(), g.indices[upper].tolist(),
                     map(repr, g.weights[upper].tolist())))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_domain_file(g, path):
    """The vertex ids of ``omega <label>`` lines on ``g``, in file order.
    A malformed line and a label that is not a vertex of ``g`` raise with
    the file's name and line."""
    ids = []
    for rows in _row_blocks(path):
        if set(map(len, rows)) - {2}:
            break
        kinds, labs = zip(*rows) if rows else ((), ())
        if kinds.count("omega") != len(kinds):
            break
        try:
            ids.extend(g.vertex_ids(labs).tolist())
        except InvalidGraphData:
            break
    else:
        return ids
    _raise_line_fault(path, _domain_line(g))


def _domain_line(g):
    def check(parts):
        if parts[0] != "omega" or len(parts) != 2:
            raise ValueError("expected 'omega <label>'")
        g.vertex_named(parts[1])
    return check


def read_field_file(g, path):
    """The field of ``<label> <value>`` lines, 0 at unlisted vertices. A
    malformed line, an unknown label and a label listed twice raise with
    the file's name and line."""
    vals = np.zeros(g.num_vertices)
    listed = np.zeros(g.num_vertices, dtype=bool)
    lines = 0
    for rows in _row_blocks(path):
        if set(map(len, rows)) - {2}:
            break
        labs, values = zip(*rows) if rows else ((), ())
        try:
            values = np.fromiter(map(float, values), float, len(values))
            ids = g.vertex_ids(labs)
        except (ValueError, InvalidGraphData):
            break
        if not np.isfinite(values).all():
            break
        vals[ids] = values
        listed[ids] = True
        lines += len(rows)
    else:
        # fewer vertices than lines: some vertex is listed twice
        if np.count_nonzero(listed) == lines:
            return VertexField(g, vals)
    _raise_line_fault(path, _field_line(g))


def _field_line(g):
    """The check of each field-file line in turn."""
    seen = set()  # the vertices of the lines so far

    def check(parts):
        if len(parts) != 2:
            raise ValueError("expected '<label> <value>'")
        _finite(parts[1])
        i = g.vertex_named(parts[0])
        if i in seen:
            raise ValueError(f"vertex {g.label_of(i)!r} listed twice")
        seen.add(i)
    return check


def _finite(token):
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token!r}")
    return value


def write_field_file(field, path):
    # repr of a Python float is fmt of the numpy value
    atomic_write_text(path, "".join([
        f"{name} {v!r}\n"
        for name, v in zip(field.graph.names, field.values.tolist())]))


def atomic_write_text(path, text):
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None


def csv_text(columns):
    """The CSV text of a table given as ``{header: column}``, with
    equal-length 1-D columns: a column of an integer dtype in decimal,
    any other as floats by ``fmt``, with NaN (and None) as an empty cell.
    A row of one empty cell is written ``""``, as ``csv.writer`` does."""
    cells = []
    for column in map(np.asarray, columns.values()):
        if column.dtype.kind in "iu":
            cells.append(list(map(str, column.tolist())))
        else:
            cells.append(["" if x != x else repr(x)
                          for x in column.astype(float).tolist()])
    if len(set(map(len, cells))) > 1:
        raise ValueError("table columns differ in length")
    rows = [",".join(row) or '""' for row in zip(*cells)]
    return "\n".join([",".join(columns), *rows]) + "\n"


def write_csv(path, columns):
    """The table ``columns`` (see ``csv_text``) written to ``path``."""
    atomic_write_text(path, csv_text(columns))


def _label_cells(names):
    """The labels as CSV cells: one that holds a comma, a quote, a carriage
    return or a line feed in quotes, each quote doubled, and any other as
    it is."""
    return ['"' + name.replace('"', '""') + '"'
            if "," in name or '"' in name or "\r" in name or "\n" in name
            else name for name in names]


def write_trajectory_csv(path, values, times, graph):
    """One ``i,t,vertex,value`` row per step and vertex of ``graph``, from
    ``values``, a K x V array with row i the values of step i in vertex
    order (a run's ``values``), at ``times[i]``; byte-identical to
    ``csv.writer`` over those rows with floats by ``fmt``, except that a
    label with a bare carriage return is quoted too, so that its rows read
    back whole. Each label is quoted once."""
    cells = _label_cells(graph.names)
    lines = ["i,t,vertex,value"]
    rows = np.asarray(values, dtype=float).tolist()
    for i, (t, row) in enumerate(zip(times, rows)):
        prefix = f"{i},{fmt(t)},"
        lines.extend(f"{prefix}{cell},{v}" for cell, v in
                     zip(cells, map(repr, row)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _trajectory_step(i_s, t_s, times):
    """Index of the step that a row's ``i`` and ``t`` strings name: the
    next new step (its time appended to ``times``), or a step already
    read, at the time it was read with."""
    i = int(i_s)
    t = _finite(t_s)
    if i < 0:
        raise ValueError(f"negative step index {i}")
    if i > len(times):
        raise ValueError(f"step index {i} skips step {len(times)}")
    if i == len(times):
        times.append(t)
    elif t != times[i]:
        raise ValueError(f"step {i} at time {t_s}, read before at "
                         f"{times[i]!r}")
    return i


class _VertexIds(dict):
    """``{label cell: vertex id}`` on a graph, seeded with its names. A
    cell that is not a name is read once by ``parse_label``: a label of
    the graph gets its vertex's id, and each other label the next id from
    V up (in ``unknown``), so its repeats are found like any other."""

    def __init__(self, graph):
        super().__init__(zip(graph.names, range(graph.num_vertices)))
        self.graph = graph
        self.unknown = {}

    def __missing__(self, cell):
        label = parse_label(cell)
        try:
            vid = self.graph.vertex(label)
        except InvalidGraphData:
            vid = self.unknown.setdefault(
                label, self.graph.num_vertices + len(self.unknown))
        self[cell] = vid
        return vid


def _csv_rows(path):
    with _Text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            return list(reader)
        except csv.Error as exc:
            raise InvalidGraphData(f"{path}:{reader.line_num}: {exc}") \
                from None


def _writer_steps(path, graph):
    """``(times, values)`` of a trajectory CSV laid out exactly as
    ``write_trajectory_csv`` writes it on ``graph``, or None. Step k must
    be V lines ``{k},{t},{cell},{value}`` in vertex order, one ``t`` for
    all and each ``cell`` from ``_label_cells``: two ``startswith``
    passes check them, and one ``float`` pass reads the values. None also
    for a file that ``csv.reader`` could read apart from its lines: a
    carriage return anywhere, no line feed at the end, a line over the
    field size limit, or a time or value that ``float`` refuses or reads
    as non-finite."""
    cells = _label_cells(graph.names)
    joined = "".join(cells)
    # a label with a line feed spans lines; csv before 3.11 refuses NUL
    if not cells or "\n" in joined or "\0" in joined:
        return None
    try:
        with _Text(path, newline="") as fh:
            text = fh.read()
    except InvalidGraphData:  # named by the csv.reader path
        return None
    if "\r" in text or not text.endswith("\n"):
        return None
    lines = text.split("\n")
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    del text
    V = len(cells)
    K, extra = divmod(len(lines) - 2, V)
    if extra or lines[0] != "i,t,vertex,value":
        return None
    heads = [cell + "," for cell in cells]
    cuts = {}  # per prefix length, the slice of each vertex's value
    times = []
    values = np.empty((K, V))
    for k in range(K):
        block = lines[1 + k * V:1 + (k + 1) * V]
        t_s = block[0][len(str(k)) + 1:].partition(",")[0]
        prefix = f"{k},{t_s},"
        at = len(prefix)
        if not (all(map(str.startswith, block, itertools.repeat(prefix)))
                and all(map(str.startswith, block, heads,
                            itertools.repeat(at)))):
            return None
        if at not in cuts:
            cuts[at] = [slice(at + len(head), None) for head in heads]
        try:
            times.append(float(t_s))
            values[k] = np.fromiter(
                map(float, map(operator.getitem, block, cuts[at])), float, V)
        except ValueError:
            return None
    if not (np.isfinite(times).all() and np.isfinite(values).all()):
        return None
    return times, _frozen(values)


def read_trajectory_csv(path, graph):
    """The steps of a trajectory CSV on ``graph``: ``(times, values)``,
    the list of step times and a read-only K x V array whose row i holds
    the values of step i in ``graph``'s vertex order.

    Rows may come in any order. A faulty row raises with the file's name
    and the row's number (see the module docstring), and a file whose
    steps do not each name every vertex of ``graph`` exactly once raises
    ``GraphMismatch``. The writer's own layout is read by
    ``_writer_steps``. Every other file is split by ``csv.reader``, and
    one loop over its rows checks each row's cells, step and value,
    raising at the first fault, and collects its step, vertex id and
    value; a repeated (step, vertex) is then found by one ``bincount``
    over those ids."""
    steps = _writer_steps(path, graph)
    if steps is not None:
        return steps
    rows = _csv_rows(path)
    if not rows or rows[0] != ["i", "t", "vertex", "value"]:
        raise InvalidGraphData(f"{path}: not a trajectory CSV")
    times = []
    step_of = {}  # (i, t) strings: step index
    ids = _VertexIds(graph)
    row_steps, row_vids = [], []
    vals = array.array("d")
    for rowno, row in enumerate(itertools.islice(rows, 1, None), 2):
        try:
            if len(row) != 4:
                raise ValueError(f"expected 4 columns, got {len(row)}")
            i_s, t_s, cell, val_s = row
            i = step_of.get((i_s, t_s))
            if i is None:
                i = step_of[i_s, t_s] = _trajectory_step(i_s, t_s, times)
            vals.append(_finite(val_s))
        except ValueError as exc:
            raise InvalidGraphData(f"{path}:{rowno}: {exc}") from None
        row_steps.append(i)
        row_vids.append(ids[cell])
    V = graph.num_vertices
    K, W = len(times), V + len(ids.unknown)
    key = np.array(row_steps, np.intp) * W + np.array(row_vids, np.intp)
    if (np.bincount(key, minlength=K * W) > 1).any():
        # the first row whose key an earlier row has
        repeat = np.ones(len(key), bool)
        repeat[np.unique(key, return_index=True)[1]] = False
        r = int(repeat.argmax())
        raise InvalidGraphData(
            f"{path}:{r + 2}: vertex {parse_label(rows[r + 1][2])!r} "
            f"listed twice in step {row_steps[r]}")
    # with no repeats and no unknown label (W == V), K * V rows fill every
    # step, and each row's key is its slot in the K x V array
    if W > V or len(key) != K * V:
        raise GraphMismatch(
            f"{path}: trajectory vertices do not match the graph")
    values = np.empty(K * V)
    values[key] = vals
    return times, _frozen(values.reshape(K, V))


def _frozen(values):
    values.setflags(write=False)
    return values


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, config, tolerances, outputs_dir, output_names,
                   diagnostics):
    manifest = {
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True,
                       separators=(",", ":")).encode()).hexdigest(),
        "tolerances": tolerances,
        "outputs": {name: sha256_file(os.path.join(outputs_dir, name))
                    for name in sorted(output_names)},
        "diagnostics": diagnostics,
    }
    atomic_write_text(path, json.dumps(manifest, sort_keys=True, indent=2)
                      + "\n")
    return manifest
