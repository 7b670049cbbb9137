import collections
import csv
import io
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrothe import VertexField, build_finite_graph, fileio
from graphrothe import LatticeZ2, materialize_ball
from graphrothe.errors import (
    DuplicateEdge,
    GraphMismatch,
    GraphrotheError,
    InvalidGraphData,
    IoError,
)
from helpers import (
    path_graph,
    random_connected_graph,
    reference_read_trajectory_csv,
    reference_write_csv,
)


GRAPH_TEXT = """\
# a five-vertex path
graph 5
v 0 1.0
v 1 1.0
v 2 1.5
v 3 1.0
v 4 1.0
e 0 1 1.0
e 1 2 0.5
e 2 3 0.5
e 3 4 1.0
"""


class TestGraphFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(GRAPH_TEXT)
        g = fileio.read_graph_file(str(path))
        assert g.num_vertices == 5 and g.num_edges == 4
        assert g.mu[g.vertex(2)] == 1.5
        out = tmp_path / "g2.txt"
        fileio.write_graph_file(g, str(out))
        assert out.read_text() == "".join(
            line + "\n" for line in GRAPH_TEXT.splitlines()[1:])
        g2 = fileio.read_graph_file(str(out))
        assert g2.labels == g.labels
        assert np.array_equal(g2.weights, g.weights)
        assert np.array_equal(g2.mu, g.mu)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("v 0 1.0\nv 1 1.0\ne 0 1 1.0\n")
        with pytest.raises(InvalidGraphData):
            fileio.read_graph_file(str(path))

    def test_bad_record(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("graph 2\nv 0 1.0\nv 1 1.0\nedge 0 1 1.0\n")
        with pytest.raises(InvalidGraphData):
            fileio.read_graph_file(str(path))

    def test_missing_file(self):
        with pytest.raises(IoError):
            fileio.read_graph_file("/nonexistent/g.txt")

    def test_each_label_token_parsed_once(self, tmp_path, monkeypatch):
        path = tmp_path / "grid.txt"
        fileio.write_graph_file(materialize_ball(LatticeZ2(), [(0, 0)], 4),
                                str(path))
        tokens = {tok for line in path.read_text().splitlines()[1:]
                  for tok in line.split()[1:-1]}
        calls = collections.Counter()
        parse = fileio.parse_label

        def counting(token):
            calls[token] += 1
            return parse(token)

        monkeypatch.setattr(fileio, "parse_label", counting)
        g = fileio.read_graph_file(str(path))
        assert len(tokens) == g.num_vertices == 41
        assert calls == collections.Counter(tokens)

    def test_malformed_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "g.txt"
        for bad, message in (("e 1 2 heavy", "could not convert"),
                             ("v 3", "unrecognized record"),
                             ("e 1 2", "unrecognized record")):
            path.write_text(GRAPH_TEXT.replace("e 1 2 0.5", bad))
            with pytest.raises(InvalidGraphData,
                               match=f"^{path}:9: {message}"):
                fileio.read_graph_file(str(path))

    def test_vertex_listed_twice(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(GRAPH_TEXT.replace("v 4 1.0", "v 4 1.0\nv 01 5.0"))
        with pytest.raises(InvalidGraphData,
                           match=f"^{path}:8: vertex 1 listed twice$"):
            fileio.read_graph_file(str(path))

    def test_refused_graph_names_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(GRAPH_TEXT + "e 2 1 0.25\n")
        with pytest.raises(DuplicateEdge,
                           match=f"^{path}: edge 2--1 listed inconsistently$"):
            fileio.read_graph_file(str(path))

    def test_writer_bytes_match_per_vertex_reference(self, tmp_path):
        rng = np.random.default_rng(23)
        path = tmp_path / "g.txt"
        for g in (mixed_label_graph(), random_connected_graph(rng),
                  materialize_ball(LatticeZ2(), [(0, 0)], 3)):
            fileio.write_graph_file(g, str(path))
            assert path.read_bytes().decode("utf-8") == \
                reference_graph_file(g)


class TestLabels:
    def test_int_and_tuple_and_string(self):
        assert fileio.parse_label("3") == 3
        assert fileio.parse_label("-4") == -4
        assert fileio.parse_label("0,1") == (0, 1)
        assert fileio.parse_label("-2,7") == (-2, 7)
        assert fileio.parse_label("a") == "a"
        for lab in (3, -4, (0, 1), "a"):
            assert fileio.parse_label(fileio.format_label(lab)) == lab


class TestFieldFile:
    def test_unlisted_default_zero(self, tmp_path):
        g = path_graph(5)
        path = tmp_path / "h.txt"
        path.write_text("2 1.5\n# comment\n4 -1.0\n")
        h = fileio.read_field_file(g, str(path))
        assert h[2] == 1.5 and h[4] == -1.0 and h[0] == 0.0

    def test_nonfinite_value_rejected(self, tmp_path):
        g = path_graph(5)
        path = tmp_path / "h.txt"
        for value in ("nan", "inf", "-inf", "1e400"):
            path.write_text(f"2 1.5\n1 {value}\n")
            with pytest.raises(InvalidGraphData,
                               match=f"^{path}:2: non-finite value"):
                fileio.read_field_file(g, str(path))

    def test_label_listed_twice(self, tmp_path):
        g = path_graph(5)
        path = tmp_path / "h.txt"
        path.write_text("2 1.5\n# comment\n02 -1.0\n")
        with pytest.raises(InvalidGraphData,
                           match=f"^{path}:3: vertex 2 listed twice$"):
            fileio.read_field_file(g, str(path))

    def test_spellings_of_one_label(self, tmp_path, monkeypatch):
        # each token is parsed once per graph, whatever file reads it
        from graphrothe import graph as graph_module

        calls = collections.Counter()
        parse = graph_module.parse_label

        def counting(token):
            calls[token] += 1
            return parse(token)

        monkeypatch.setattr(graph_module, "parse_label", counting)
        g = build_finite_graph([((0, 1), (0, 2), 1.0)],
                               {(0, 1): 1.0, (0, 2): 1.0})
        path = tmp_path / "h.txt"
        path.write_text("0,01 1.5\n+0,2 -1.0\n")
        assert fileio.read_field_file(g, str(path)).values.tolist() \
            == [1.5, -1.0]
        for text in ("0,1 1.5\n0,01 2.0\n", "0,01 1.5\n0,1 2.0\n"):
            path.write_text(text)
            with pytest.raises(InvalidGraphData,
                               match=rf"^{path}:2: vertex \(0, 1\) listed "
                                     rf"twice$"):
                fileio.read_field_file(g, str(path))
        assert calls == {"0,01": 1, "+0,2": 1, "0,1": 1}

    def test_unknown_label_names_path_and_line(self, tmp_path):
        g = path_graph(5)
        path = tmp_path / "h.txt"
        path.write_text("2 1.5\nzz 1.0\n")
        with pytest.raises(InvalidGraphData,
                           match=f"^{path}:2: unknown vertex label 'zz'$"):
            fileio.read_field_file(g, str(path))

    def test_round_trip(self, tmp_path):
        g = path_graph(4)
        h = VertexField.from_mapping(g, {1: 0.1, 3: -2.75})
        path = tmp_path / "h.txt"
        fileio.write_field_file(h, str(path))
        again = fileio.read_field_file(g, str(path))
        assert np.array_equal(h.values, again.values)


class TestDomainFile:
    def test_read(self, tmp_path):
        g = build_finite_graph([("a", "b", 1.0), ("b", "c", 1.0)],
                               {"a": 1.0, "b": 1.0, "c": 1.0})
        path = tmp_path / "dom.txt"
        path.write_text("omega c\nomega a\nomega b\n")
        assert fileio.read_domain_file(g, str(path)) == [2, 0, 1]

    def test_label_spellings(self, tmp_path):
        path = tmp_path / "dom.txt"
        path.write_text("omega 01\nomega +2\nomega 3\n")
        assert fileio.read_domain_file(path_graph(5), str(path)) \
            == [1, 2, 3]

    def test_bad_line(self, tmp_path):
        g = path_graph(5)
        path = tmp_path / "dom.txt"
        for text, message in (("omega 1\ninterior 2\n",
                               "2: expected 'omega <label>'"),
                              ("omega 1\n\nomega 7\n",
                               "3: unknown vertex label 7")):
            path.write_text(text)
            with pytest.raises(InvalidGraphData) as info:
                fileio.read_domain_file(g, str(path))
            assert str(info.value) == f"{path}:{message}"


class TestCsv:
    def test_float_formatting_round_trips(self):
        for x in (0.1, 1.0 / 3.0, 1e-17, 123456.789, -0.0):
            assert float(fileio.fmt(x)) == x

    def test_trajectory_round_trip(self, tmp_path):
        g = path_graph(3)
        fields = [VertexField.from_mapping(g, {1: float(k)})
                  for k in range(3)]
        times = [0.0, 0.5, 1.0]
        path = tmp_path / "traj.csv"
        fileio.write_trajectory_csv(
            str(path), np.array([u.values for u in fields]), times, g)
        rtimes, values = fileio.read_trajectory_csv(str(path), g)
        assert rtimes == times
        assert values.tolist() == [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                   [0.0, 2.0, 0.0]]
        assert not values.flags.writeable

    def test_none_becomes_empty(self, tmp_path):
        path = tmp_path / "x.csv"
        fileio.write_csv(str(path), {"a": [1], "b": [None]})
        assert path.read_text() == "a,b\n1,\n"

    def test_unequal_columns_refused(self):
        with pytest.raises(ValueError, match="differ in length"):
            fileio.csv_text({"a": range(2), "b": [0.5]})

    def test_tuple_labels_round_trip(self, tmp_path):
        g = materialize_ball(LatticeZ2(), [(0, 0)], 1)
        fields = [VertexField.from_mapping(g, {(0, 0): 1.0}),
                  VertexField.from_mapping(g, {(0, 1): -2.0})]
        path = tmp_path / "traj.csv"
        fileio.write_trajectory_csv(
            str(path), np.array([u.values for u in fields]), [0.0, 1.0], g)
        _, values = fileio.read_trajectory_csv(str(path), g)
        assert values[0, g.vertex((0, 0))] == 1.0
        assert values[1, g.vertex((0, 1))] == -2.0
        assert values[1, g.vertex((1, 0))] == 0.0


# floats the formatting could get wrong: signed zero, infinities, the
# subnormal range, the edges of the normal range, and integers near 1e16
# where float spacing exceeds 1
EDGE_FLOATS = [-0.0, 0.0, math.inf, -math.inf, 5e-324, -5e-324,
               2.2250738585072014e-308, 2.225073858507201e-308,
               1.7976931348623157e308, 1e16, 1e16 + 2.0, 9007199254740993.0,
               -9999999999999998.0, 0.1, 1.0 / 3.0]


@st.composite
def _table(draw):
    """``(columns, rows)``: a table as ``{header: column}`` with columns
    of mixed forms, and the same table as the rows the per-row writer
    took, with NaN as None as its callers passed it."""
    n = draw(st.integers(0, 12))
    columns = {}
    for k in range(draw(st.integers(1, 5))):
        form = draw(st.sampled_from(["int array", "int list", "range",
                                     "float array", "float list"]))
        if form == "range":
            start = draw(st.integers(-5, 5))
            column = range(start, start + n)
        elif form.startswith("int"):
            column = draw(st.lists(st.integers(-2**63, 2**63 - 1),
                                   min_size=n, max_size=n))
        else:
            floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
            if form == "float list":
                floats = st.one_of(floats, st.none())
            column = draw(st.lists(floats, min_size=n, max_size=n))
        if form.endswith("array"):
            column = np.array(column, dtype=int if form.startswith("int")
                              else float)
        columns[f"c{k}"] = column
    cells = [[None if isinstance(x, float) and math.isnan(x) else x
              for x in (c.tolist() if isinstance(c, np.ndarray) else c)]
             for c in columns.values()]
    return columns, list(zip(*cells))


class TestTableWriter:
    """The column writer against the per-row writer it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(table=_table())
    def test_matches_row_writer(self, table):
        columns, rows = table
        with tempfile.TemporaryDirectory() as d:
            ref, new = os.path.join(d, "ref.csv"), os.path.join(d, "new.csv")
            reference_write_csv(ref, list(columns), rows)
            fileio.write_csv(new, columns)
            with open(ref, "rb") as fh:
                expected = fh.read()
            with open(new, "rb") as fh:
                assert fh.read() == expected
        assert fileio.csv_text(columns).encode() == expected

    def test_nan_and_none_are_empty(self):
        assert fileio.csv_text({"i": np.arange(3),
                                "x": np.array([math.nan, -0.0, math.inf]),
                                "y": [None, 0.5, math.nan]}) == \
            "i,x,y\n0,,\n1,-0.0,0.5\n2,inf,\n"


def reference_trajectory_csv(fields, times, graph):
    """Reference: the trajectory rows through ``csv.writer``, with every
    float formatted by ``fmt``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("i", "t", "vertex", "value"))
    for i, (t, u) in enumerate(zip(times, fields)):
        for v in range(graph.num_vertices):
            writer.writerow((i, fileio.fmt(t),
                             fileio.format_label(graph.labels[v]),
                             fileio.fmt(u.values[v])))
    return buf.getvalue()


def reference_graph_file(g):
    """Reference: the graph-file text written vertex by vertex, each
    vertex's edges to higher ids in neighbor order."""
    lines = [f"graph {g.num_vertices}"]
    for i, lab in enumerate(g.labels):
        lines.append(f"v {fileio.format_label(lab)} {fileio.fmt(g.mu[i])}")
    for i in range(g.num_vertices):
        nbrs, w = g.neighbors(i)
        for j, wj in zip(nbrs, w):
            if i < j:
                lines.append(f"e {fileio.format_label(g.labels[i])} "
                             f"{fileio.format_label(g.labels[int(j)])} "
                             f"{fileio.fmt(wj)}")
    return "\n".join(lines) + "\n"


def reference_field_file(field):
    return "".join(f"{fileio.format_label(lab)} {fileio.fmt(v)}\n"
                   for lab, v in zip(field.graph.labels, field.values))


def mixed_label_graph():
    """Int, tuple and string labels, some strings needing CSV quotes."""
    labels = [3, -1, 12, (0, 1), (2, -5), "a,b", 'say"hi"', 'x,"y"', "plain"]
    edges = [(labels[k], labels[k + 1], 1.0) for k in range(len(labels) - 1)]
    return build_finite_graph(edges, {lab: 1.0 for lab in labels})


class TestWriterByteIdentity:
    """The writers give the bytes of a per-cell csv.writer/fmt reference,
    and the reader gives back every label and value."""

    def _fields(self, g):
        rng = np.random.default_rng(81)
        n = g.num_vertices
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e300,
                            1.0 / 3.0, 2.0 ** -1074 * 3, 1e300])
        fields = [VertexField(g, special[:n])]
        for _ in range(4):
            vals = rng.normal(size=n) * 10.0 ** rng.integers(-300, 301,
                                                             size=n)
            vals[rng.random(n) < 0.2] = -0.0
            fields.append(VertexField(g, vals))
        return fields

    def test_trajectory_csv(self, tmp_path):
        g = mixed_label_graph()
        fields = self._fields(g)
        times = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1e-300, 1e300])
        path = tmp_path / "traj.csv"
        fileio.write_trajectory_csv(
            str(path), np.array([u.values for u in fields]), times, g)
        text = path.read_bytes().decode("utf-8")
        assert text == reference_trajectory_csv(fields, times, g)
        assert '"a,b"' in text and '"say""hi"""' in text
        fileio.write_trajectory_csv(str(tmp_path / "empty.csv"), [], [], g)
        assert (tmp_path / "empty.csv").read_text() == \
            reference_trajectory_csv([], [], g)

        rtimes, values = fileio.read_trajectory_csv(str(path), g)
        assert rtimes == [float(t) for t in times]
        # bytes keep the sign of -0.0
        assert values.tobytes() == \
            np.array([u.values for u in fields]).tobytes()

    def test_field_file(self, tmp_path):
        g = mixed_label_graph()
        path = tmp_path / "h.txt"
        for field in self._fields(g):
            fileio.write_field_file(field, str(path))
            assert path.read_bytes().decode("utf-8") == \
                reference_field_file(field)

    @given(st.lists(st.text(alphabet=',"\n \tab;\'', max_size=6),
                    max_size=8))
    def test_label_cells_match_csv_writer(self, names):
        # without a carriage return, the cells are those of csv.writer
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([*names, "x"])
        assert ",".join([*fileio._label_cells(names), "x"]) + "\n" \
            == buf.getvalue()

    @settings(deadline=None)
    @given(st.lists(st.text(alphabet=',"\r\n \tab;\'', min_size=1,
                            max_size=6).filter(
                                lambda s: fileio.parse_label(s) == s),
                    min_size=2, max_size=6, unique=True))
    def test_labels_read_back(self, names):
        # a carriage return too: every label reads back as itself
        edges = [(names[k], names[k + 1], 1.0)
                 for k in range(len(names) - 1)]
        g = build_finite_graph(edges, {name: 1.0 for name in names})
        values = np.arange(2.0 * len(names)).reshape(2, len(names))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "traj.csv")
            fileio.write_trajectory_csv(path, values, [0.0, 0.5], g)
            times, got = fileio.read_trajectory_csv(path, g)
        assert times == [0.0, 0.5]
        assert got.tolist() == values.tolist()


# value and time tokens around float()'s edges: underscores, whitespace,
# signs, hex, overflow, non-finite words, -0.0 and non-ASCII digits
ODD_TOKENS = ["1_0", " 2.5", "+3", "0x1p3", "1e999", "nan", "-inf", "-0.0",
              "abc", "", "1e-320", "\u0661", "1__0"]
LABELS = st.one_of(
    st.integers(-20, 20),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    # strings that a graph file could name: parse_label reads them back
    st.text(alphabet='ab,"\r\n x', min_size=1, max_size=4).filter(
        lambda s: fileio.parse_label(s) == s))
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1030, 1e300,
                     -1e300, 1.0 / 3.0]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def mixed_graphs(draw):
    """A random tree on 1 to 6 mixed int, tuple and string labels."""
    labels = draw(st.lists(LABELS, min_size=2, max_size=6,
                           unique_by=fileio.format_label))
    edges = [(labels[draw(st.integers(0, k - 1))], labels[k], 1.0)
             for k in range(1, len(labels))]
    return build_finite_graph(edges, {lab: 1.0 for lab in labels})


def _interleave(rng, steps):
    """The rows of ``steps`` (a row list per step) in a random order in
    which each step's first row still follows the previous step's."""
    queues = [rng.sample(rows, len(rows)) for rows in steps]
    started = 0
    out = []
    while any(queues):
        k = rng.choice([k for k in range(min(started + 1, len(queues)))
                        if queues[k]])
        started = max(started, k + 1)
        out.append(queues[k].pop())
    return out


def _equivalent_token(cell):
    """Another token that ``parse_label`` reads as the same int or tuple
    label as ``cell``, or ``cell``."""
    label = fileio.parse_label(cell)
    if isinstance(label, int):
        return f"+{label}" if label >= 0 else f"-0{-label}"
    if isinstance(label, tuple):
        return ", ".join(f"0{p}" if p >= 0 else str(p) for p in label)
    return cell


def _mutate(rng, rows, kind):
    """Apply one kind of damage (or an equivalent rewrite) to ``rows``."""
    if not rows:
        return
    r = rng.randrange(len(rows))
    row = rows[r]
    if kind == "drop":
        del rows[r]
    elif kind == "duplicate":
        rows.insert(rng.randrange(len(rows) + 1), list(row))
    elif kind == "equivalent" and len(row) == 4:
        row[2] = _equivalent_token(row[2])
    elif kind == "unknown" and len(row) == 4:
        row[2] = "zz"
    elif kind == "unknown_repeat" and len(row) == 4:
        for _ in range(2):
            rows.insert(rng.randrange(len(rows) + 1), row[:2] + ["zz", "1.0"])
    elif kind == "wrong_time" and len(row) == 4:
        row[1] = rng.choice(["0.7", "1e-300", row[1] + "1"])
    elif kind == "skip_step" and len(row) == 4:
        row[0] = str(int(row[0]) + rng.choice([1, 2, -1]))
    elif kind == "bad_value" and len(row) == 4:
        row[3] = rng.choice(ODD_TOKENS)
    elif kind == "bad_time" and len(row) == 4:
        token = rng.choice(ODD_TOKENS)
        for other in rows:
            if other[:2] == row[:2]:
                other[1] = token
    elif kind == "columns":
        if row and rng.random() < 0.5:
            row.pop()
        else:
            row.append("x")
    elif kind == "empty_row":
        rows.insert(r, [])


MUTATIONS = ["drop", "duplicate", "equivalent", "unknown", "unknown_repeat",
             "wrong_time", "skip_step", "bad_value", "bad_time", "columns",
             "empty_row"]


def _outcome(read, path, graph):
    """``(times, values)`` as bytes (keeping the sign of -0.0), or the
    type and message of the error."""
    try:
        times, values = read(path, graph)
    except GraphrotheError as exc:
        return type(exc), str(exc)
    return (np.array(times, dtype=float).tobytes(), values.shape,
            values.tobytes())


def _write_rows(path, rows, line_end):
    """``rows`` as CSV, a cell in quotes exactly when it holds a comma, a
    quote or a line break, as the trajectory writer quotes labels;
    ``csv.writer`` would leave a bare carriage return unquoted."""
    def cell(text):
        if any(c in text for c in ',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    with open(path, "w", newline="") as fh:
        fh.write("".join(",".join(map(cell, row)) + line_end
                         for row in rows))


class TestTrajectoryReader:
    """``read_trajectory_csv`` against the reference reader (a dict per
    step, then one array) on written, reordered and damaged files."""

    @settings(max_examples=300, deadline=None)
    @given(g=mixed_graphs(), data=st.data(), rng=st.randoms(),
           mutations=st.lists(st.sampled_from(MUTATIONS), max_size=2),
           shuffle=st.sampled_from(["none", "interleave", "any"]),
           crlf=st.booleans())
    def test_matches_reference(self, g, data, rng, mutations, shuffle,
                               crlf):
        K = data.draw(st.integers(0, 3))
        values = np.array(data.draw(st.lists(
            VALUES, min_size=K * g.num_vertices,
            max_size=K * g.num_vertices)), dtype=float).reshape(
                K, g.num_vertices)
        times = data.draw(st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, 1e-300]),
                      st.floats(-1e3, 1e3)), min_size=K, max_size=K))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "traj.csv")
            fileio.write_trajectory_csv(path, values, times, g)
            if mutations or shuffle != "none" or crlf:
                with open(path, newline="") as fh:
                    header, *rows = csv.reader(fh)
                if shuffle == "interleave":
                    rows = _interleave(rng, [
                        [row for row in rows if row[:1] == [str(k)]]
                        for k in range(K)])
                elif shuffle == "any":
                    rng.shuffle(rows)
                for kind in mutations:
                    _mutate(rng, rows, kind)
                _write_rows(path, [header, *rows], "\r\n" if crlf else "\n")
            got = _outcome(fileio.read_trajectory_csv, path, g)
            assert got == _outcome(reference_read_trajectory_csv, path, g)
        if not mutations and shuffle != "any":
            assert got == (np.array(times, dtype=float).tobytes(),
                           values.shape, values.tobytes())

    def test_rows_in_any_vertex_order(self, tmp_path):
        g = path_graph(3)
        path = tmp_path / "traj.csv"
        path.write_text("i,t,vertex,value\n0,0.0,2,3.0\n0,0.0,0,1.0\n"
                        "1,0.5,1,5.0\n0,0.0,1,2.0\n1,0.5,+2,6.0\n"
                        "1,5e-1,00,4.0\n")
        times, values = fileio.read_trajectory_csv(str(path), g)
        assert times == [0.0, 0.5]
        assert values.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0, 0] = 0.0

    def test_empty_trajectory(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("i,t,vertex,value\n")
        times, values = fileio.read_trajectory_csv(str(path), path_graph(3))
        assert times == [] and values.shape == (0, 3)

    def test_vertex_mismatch(self, tmp_path):
        path = tmp_path / "traj.csv"
        # a vertex missing from step 1, and a label that is not the graph's
        for text in ("i,t,vertex,value\n0,0.0,0,1.0\n0,0.0,1,1.0\n"
                     "1,1.0,0,1.0\n",
                     "i,t,vertex,value\n0,0.0,0,1.0\n0,0.0,1,1.0\n"
                     "0,0.0,zz,1.0\n"):
            path.write_text(text)
            with pytest.raises(GraphMismatch) as info:
                fileio.read_trajectory_csv(str(path), path_graph(2))
            assert str(info.value) == \
                f"{path}: trajectory vertices do not match the graph"

    def test_oversized_field_refused(self, tmp_path):
        # csv.reader refuses a field over its size limit: an input error
        path = tmp_path / "traj.csv"
        path.write_text("i,t,vertex,value\n0,0.0," + "7" * 200_000 + "\n")
        with pytest.raises(InvalidGraphData) as info:
            fileio.read_trajectory_csv(str(path), path_graph(2))
        assert str(info.value).startswith(f"{path}:2: field larger than")
