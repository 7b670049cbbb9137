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

Trajectory CSV: the header ``i,t,vertex,value``, then one row per step
and vertex, with the step index, its time, the vertex's label (quoted
when it holds a comma or quote) and its value. The writer emits the steps
in order and each step's rows in vertex order; the reader takes the rows
in any order. It reads them with ``csv.reader`` and numbers with
``float()``, so a value or time is any token ``float()`` reads as a
finite number (``1_0``, ``+3`` and a number after spaces too, ``0x1p3``
and ``nan`` not). A label cell names a vertex by its label as written or
by any token that reads as that label (``02`` and ``+2`` name vertex 2).
Every row has four cells, steps are numbered from 0 and first appear in
order, every row of a step carries its time, and no vertex has two rows
in one step: the error for a file that breaks one of these rules names
its first faulty row, as ``path:row`` with the header as row 1. Each
step must then name every vertex of the graph and no other, or the file
does not match the graph.

Table CSV (every other CSV output, and ``compare``'s table): a header
row, then one row per entry, formatted whole by ``csv_text`` from a
``{header: column}`` mapping: integers in decimal, floats by ``fmt``,
and an empty cell where a value is undefined.

All floats are written with shortest round-trip decimal formatting, and
files are written to a temp name then atomically moved into place.
"""

from __future__ import annotations

import csv
import hashlib
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
from .graph import build_finite_graph, format_label, parse_label  # noqa: F401


def fmt(x):
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


class _Labels(dict):
    """``{token: parse_label(token)}``, filled as tokens are looked up, so
    each distinct token is parsed once."""

    def __missing__(self, token):
        label = self[token] = parse_label(token)
        return label


def _not_utf8(path, exc):
    return InvalidGraphData(f"{path}: not UTF-8 text ({exc.reason} at "
                            f"byte {exc.start})")


def _lines(path):
    """(line number, tokens) of each line with a token outside its ``#``
    comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    for lineno, line in enumerate(raw, 1):
        if "#" in line:
            line = line.partition("#")[0]
        parts = line.split()
        if parts:
            yield lineno, parts


def read_graph_file(path):
    """The graph of a graph file. A malformed or repeated record, and a
    graph that ``build_finite_graph`` refuses, raise with the file's name
    (and the line, for a record) in the message."""
    labels = _Labels()
    measures = {}
    edges = []
    saw_header = False
    for lineno, parts in _lines(path):
        kind = parts[0]
        try:
            if kind == "e" and len(parts) == 4:
                edges.append((labels[parts[1]], labels[parts[2]],
                              float(parts[3])))
            elif kind == "v" and len(parts) == 3:
                label = labels[parts[1]]
                mu = float(parts[2])
                if label in measures:
                    raise ValueError(f"vertex {label!r} listed twice")
                measures[label] = mu
            elif kind == "graph" and len(parts) == 2:
                saw_header = True
            else:
                raise ValueError("unrecognized record")
        except ValueError as exc:
            raise InvalidGraphData(f"{path}:{lineno}: {exc}") from None
    if not saw_header:
        raise InvalidGraphData(f"{path}: missing 'graph <n>' header")
    try:
        return build_finite_graph(edges, measures)
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
    for lineno, parts in _lines(path):
        try:
            if parts[0] != "omega" or len(parts) != 2:
                raise ValueError("expected 'omega <label>'")
            ids.append(g.vertex_named(parts[1]))
        except (ValueError, InvalidGraphData) as exc:
            raise InvalidGraphData(f"{path}:{lineno}: {exc}") from None
    return ids


def read_field_file(g, path):
    """The field of ``<label> <value>`` lines, 0 at unlisted vertices. A
    malformed line, an unknown label and a label listed twice raise with
    the file's name and line."""
    values = {}
    for lineno, parts in _lines(path):
        try:
            if len(parts) != 2:
                raise ValueError("expected '<label> <value>'")
            value = _finite(parts[1])
            i = g.vertex_named(parts[0])
            if i in values:
                raise ValueError(f"vertex {g.label_of(i)!r} listed twice")
            values[i] = value
        except (ValueError, InvalidGraphData) as exc:
            raise InvalidGraphData(f"{path}:{lineno}: {exc}") from None
    vals = np.zeros(g.num_vertices)
    vals[list(values)] = list(values.values())
    return VertexField(g, vals)


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
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            return list(reader)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    except csv.Error as exc:
        raise InvalidGraphData(f"{path}:{reader.line_num}: {exc}") from None


def read_trajectory_csv(path, graph):
    """The steps of a trajectory CSV on ``graph``: ``(times, values)``,
    the list of step times and a read-only K x V array whose row i holds
    the values of step i in ``graph``'s vertex order.

    Rows may come in any order. A faulty row raises with the file's name
    and the number of its first faulty row (see the module docstring),
    and a file whose steps do not each name every vertex of ``graph``
    exactly once raises ``GraphMismatch``."""
    rows = _csv_rows(path)
    if not rows or rows[0] != ["i", "t", "vertex", "value"]:
        raise InvalidGraphData(f"{path}: not a trajectory CSV")
    n = len(rows) - 1
    V = graph.num_vertices
    times = []
    if n == 0:
        return times, _frozen(np.empty((0, V)))
    if set(map(len, rows)) != {4}:
        _raise_row_fault(path, rows)
    i_col, t_col, cells, val_col = (col[1:] for col in zip(*rows))
    # a step's rows are read in runs of equal (i, t) strings, and each run
    # start goes through _trajectory_step
    new = np.fromiter(map(operator.ne, i_col[1:], i_col), bool, n - 1)
    new |= np.fromiter(map(operator.ne, t_col[1:], t_col), bool, n - 1)
    starts = np.flatnonzero(np.concatenate(([True], new)))
    try:
        run_steps = [_trajectory_step(i_col[s], t_col[s], times)
                     for s in starts.tolist()]
        vals = np.fromiter(map(float, val_col), float, n)
    except ValueError:
        _raise_row_fault(path, rows)
    if not np.isfinite(vals).all():
        _raise_row_fault(path, rows)
    step = np.repeat(run_steps, np.diff(starts, append=n))
    ids = _VertexIds(graph)
    vid = np.fromiter(map(ids.__getitem__, cells), np.intp, n)
    K, W = len(times), V + len(ids.unknown)
    counts = np.bincount(step * W + vid, minlength=K * W)
    if counts.max() > 1:
        _raise_row_fault(path, rows)
    if W > V or not counts.all():
        raise GraphMismatch(
            f"{path}: trajectory vertices do not match the graph")
    values = np.empty(K * V)
    values[step * V + vid] = vals
    return times, _frozen(values.reshape(K, V))


def _frozen(values):
    values.setflags(write=False)
    return values


def _raise_row_fault(path, rows):
    """Raise for the first data row of a file's ``rows`` (header first)
    that has not four cells, a bad step or a bad value; failing those, for
    the first that repeats a (step, vertex) pair. Only diagnoses a file
    that ``read_trajectory_csv`` found faulty: it builds no result."""
    times = []
    step_of = {}
    labels = _Labels()
    seen = set()
    repeat = None
    for rowno, row in enumerate(rows[1:], 2):
        try:
            if len(row) != 4:
                raise ValueError(f"expected 4 columns, got {len(row)}")
            i_s, t_s, lab_s, val_s = row
            i = step_of.get((i_s, t_s))
            if i is None:
                i = step_of[i_s, t_s] = _trajectory_step(i_s, t_s, times)
            _finite(val_s)
        except ValueError as exc:
            raise InvalidGraphData(f"{path}:{rowno}: {exc}") from None
        key = (i, labels[lab_s])
        if repeat is None and key in seen:
            repeat = InvalidGraphData(f"{path}:{rowno}: vertex {key[1]!r} "
                                      f"listed twice in step {i}")
        seen.add(key)
    raise repeat


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
