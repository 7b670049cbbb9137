"""Text formats and deterministic CSV emission.

Graph file (line oriented, ``#`` comments):
    graph <num_vertices_hint>
    v <label> <mu>
    e <label> <label> <omega>
Domain file: lines ``omega <label>``. Field file: lines ``<label> <value>``
with unlisted vertices defaulting to 0. Labels are ints, comma-joined int
tuples like ``0,1``, or plain strings; a vertex has at most one ``v`` line
in a graph file and one line in a field file.

All floats are written with shortest round-trip decimal formatting, and
files are written to a temp name then atomically moved into place.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import numpy as np

from .calculus import VertexField
from .errors import GraphrotheError, InvalidGraphData, IoError
from .graph import build_finite_graph, format_label  # noqa: F401


def fmt(x):
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


def parse_label(token):
    if "," in token:
        try:
            return tuple(map(int, token.split(",")))
        except ValueError:
            return token
    try:
        return int(token)
    except ValueError:
        return token


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
    labels = _Labels()
    ids = []
    for lineno, parts in _lines(path):
        try:
            if parts[0] != "omega" or len(parts) != 2:
                raise ValueError("expected 'omega <label>'")
            ids.append(g.vertex(labels[parts[1]]))
        except (ValueError, InvalidGraphData) as exc:
            raise InvalidGraphData(f"{path}:{lineno}: {exc}") from None
    return ids


def read_field_file(g, path):
    """The field of ``<label> <value>`` lines, 0 at unlisted vertices. A
    malformed line, an unknown label and a label listed twice raise with
    the file's name and line."""
    labels = _Labels()
    values = {}
    for lineno, parts in _lines(path):
        try:
            if len(parts) != 2:
                raise ValueError("expected '<label> <value>'")
            value = _finite(parts[1])
            label = labels[parts[0]]
            i = g.vertex(label)
            if i in values:
                raise ValueError(f"vertex {label!r} listed twice")
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
    lines = map("{} {}".format, field.graph.names,
                map(repr, field.values.tolist()))
    atomic_write_text(path, "\n".join(lines) + "\n")


def atomic_write_text(path, text):
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None


def write_csv(path, header, rows):
    """Deterministic CSV: fixed header, floats via ``fmt``, ints as-is,
    None as empty; fields containing commas (tuple labels) are quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        cells = []
        for cell in row:
            if cell is None:
                cells.append("")
            elif isinstance(cell, (bool, np.bool_)):
                cells.append(str(cell))
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            elif isinstance(cell, (float, np.floating)):
                cells.append(fmt(cell))
            else:
                cells.append(str(cell))
        writer.writerow(cells)
    atomic_write_text(path, buf.getvalue())


def _csv_cell(text):
    """``text`` as ``write_csv`` writes it in a row of several cells."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


def _label_cells(names):
    """The labels as cells of ``write_csv``: a label without a comma,
    quote or line break as it is, one whose only such character is a
    comma in quotes, and only the rest through ``_csv_cell``."""
    return [_csv_cell(name) if '"' in name or "\r" in name or "\n" in name
            else f'"{name}"' if "," in name else name for name in names]


def write_trajectory_csv(path, values, times, graph):
    """One ``i,t,vertex,value`` row per step and vertex of ``graph``, from
    ``values``, a K x V array with row i the values of step i in vertex
    order (a run's ``values``), at ``times[i]``; byte-identical to
    ``write_csv`` over those rows. Each label is quoted once."""
    cells = _label_cells(graph.names)
    lines = ["i,t,vertex,value"]
    rows = np.asarray(values, dtype=float).tolist()
    for i, (t, row) in enumerate(zip(times, rows)):
        prefix = f"{i},{fmt(t)},"
        lines.extend(f"{prefix}{cell},{v}" for cell, v in
                     zip(cells, map(repr, row)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _trajectory_step(i_s, t_s, times, steps):
    """Index of the step that a row's ``i`` and ``t`` strings name: the
    next new step, or a step already read, at the time it was read with."""
    i = int(i_s)
    t = _finite(t_s)
    if i < 0:
        raise ValueError(f"negative step index {i}")
    if i > len(steps):
        raise ValueError(f"step index {i} skips step {len(steps)}")
    if i == len(steps):
        steps.append({})
        times.append(t)
    elif t != times[i]:
        raise ValueError(f"step {i} at time {t_s}, read before at "
                         f"{times[i]!r}")
    return i


def read_trajectory_csv(path):
    """Returns (times list, list of {label: value} per step). Steps are
    numbered from 0 without gaps, all rows of a step carry its time, and a
    vertex has at most one row per step."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    if not rows or rows[0] != ["i", "t", "vertex", "value"]:
        raise InvalidGraphData(f"{path}: not a trajectory CSV")
    times = []
    steps = []
    # each distinct (i, t) pair and label string is parsed once
    step_of = {}
    labels = _Labels()
    for rowno, row in enumerate(rows[1:], 2):
        try:
            if len(row) != 4:
                raise ValueError(f"expected 4 columns, got {len(row)}")
            i_s, t_s, lab_s, val_s = row
            i = step_of.get((i_s, t_s))
            if i is None:
                i = step_of[i_s, t_s] = _trajectory_step(i_s, t_s, times,
                                                         steps)
            value = _finite(val_s)
        except ValueError as exc:
            raise InvalidGraphData(f"{path}:{rowno}: {exc}") from None
        steps[i][labels[lab_s]] = value
    if sum(map(len, steps)) != len(rows) - 1:
        _raise_repeated_row(path, rows, step_of, labels)
    return times, steps


def _raise_repeated_row(path, rows, step_of, labels):
    """Raise for the first data row that repeats a (step, vertex) pair."""
    seen = set()
    for rowno, (i_s, t_s, lab_s, _) in enumerate(rows[1:], 2):
        key = (step_of[i_s, t_s], labels[lab_s])
        if key in seen:
            raise InvalidGraphData(f"{path}:{rowno}: vertex {key[1]!r} "
                                   f"listed twice in step {key[0]}")
        seen.add(key)


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
