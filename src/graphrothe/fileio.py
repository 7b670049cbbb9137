"""Text formats and deterministic CSV emission.

Graph file (line oriented, ``#`` comments):
    graph <num_vertices_hint>
    v <label> <mu>
    e <label> <label> <omega>
Domain file: lines ``omega <label>``. Field file: lines ``<label> <value>``
with unlisted vertices defaulting to 0. Labels are ints, comma-joined int
tuples like ``0,1``, or plain strings.

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
from .errors import InvalidGraphData, IoError
from .graph import build_finite_graph


def fmt(x):
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


def parse_label(token):
    if "," in token:
        try:
            return tuple(int(p) for p in token.split(","))
        except ValueError:
            return token
    try:
        return int(token)
    except ValueError:
        return token


def format_label(label):
    if isinstance(label, tuple):
        return ",".join(str(p) for p in label)
    return str(label)


def _not_utf8(path, exc):
    return InvalidGraphData(f"{path}: not UTF-8 text ({exc.reason} at "
                            f"byte {exc.start})")


def _lines(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    for lineno, line in enumerate(raw, 1):
        body = line.split("#", 1)[0].strip()
        if body:
            yield lineno, body.split()


def read_graph_file(path):
    measures = {}
    edges = []
    saw_header = False
    for lineno, parts in _lines(path):
        kind = parts[0]
        try:
            if kind == "graph" and len(parts) == 2:
                saw_header = True
            elif kind == "v" and len(parts) == 3:
                measures[parse_label(parts[1])] = float(parts[2])
            elif kind == "e" and len(parts) == 4:
                edges.append((parse_label(parts[1]), parse_label(parts[2]),
                              float(parts[3])))
            else:
                raise ValueError("unrecognized record")
        except ValueError as exc:
            raise InvalidGraphData(f"{path}:{lineno}: {exc}") from None
    if not saw_header:
        raise InvalidGraphData(f"{path}: missing 'graph <n>' header")
    return build_finite_graph(edges, measures)


def write_graph_file(g, path):
    lines = [f"graph {g.num_vertices}"]
    for i, lab in enumerate(g.labels):
        lines.append(f"v {format_label(lab)} {fmt(g.mu[i])}")
    for i in range(g.num_vertices):
        nbrs, w = g.neighbors(i)
        for j, wj in zip(nbrs, w):
            if i < j:
                lines.append(f"e {format_label(g.labels[i])} "
                             f"{format_label(g.labels[int(j)])} {fmt(wj)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_domain_file(path):
    labels = []
    for lineno, parts in _lines(path):
        if parts[0] != "omega" or len(parts) != 2:
            raise InvalidGraphData(f"{path}:{lineno}: expected 'omega <label>'")
        labels.append(parse_label(parts[1]))
    return labels


def read_field_file(g, path):
    mapping = {}
    for lineno, parts in _lines(path):
        if len(parts) != 2:
            raise InvalidGraphData(f"{path}:{lineno}: expected '<label> <value>'")
        try:
            mapping[parse_label(parts[0])] = _finite(parts[1])
        except ValueError as exc:
            raise InvalidGraphData(f"{path}:{lineno}: {exc}") from None
    return VertexField.from_mapping(g, mapping)


def _finite(token):
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token!r}")
    return value


def write_field_file(field, path):
    # repr of a Python float is fmt of the numpy value
    lines = [f"{format_label(lab)} {v}"
             for lab, v in zip(field.graph.labels,
                               map(repr, field.values.tolist()))]
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


def write_trajectory_csv(path, fields, times, graph):
    """One ``i,t,vertex,value`` row per step and vertex, byte-identical to
    ``write_csv`` over those rows; each label is quoted once."""
    cells = [_csv_cell(format_label(lab)) for lab in graph.labels]
    lines = ["i,t,vertex,value"]
    for i, (t, u) in enumerate(zip(times, fields)):
        prefix = f"{i},{fmt(t)},"
        lines.extend(f"{prefix}{cell},{v}" for cell, v in
                     zip(cells, map(repr, u.values.tolist())))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_trajectory_csv(path):
    """Returns (times list, list of {label: value} per step)."""
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
    labels = {}  # each distinct label string parsed once
    for rowno, row in enumerate(rows[1:], 2):
        try:
            if len(row) != 4:
                raise ValueError(f"expected 4 columns, got {len(row)}")
            i_s, t_s, lab_s, val_s = row
            i = int(i_s)
            if i < 0:
                raise ValueError(f"negative step index {i}")
            t = _finite(t_s)
            value = _finite(val_s)
        except ValueError as exc:
            raise InvalidGraphData(f"{path}:{rowno}: {exc}") from None
        while len(steps) <= i:
            steps.append({})
            times.append(t)
        times[i] = t
        label = labels.get(lab_s)
        if label is None:
            label = labels[lab_s] = parse_label(lab_s)
        steps[i][label] = value
    return times, steps


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
