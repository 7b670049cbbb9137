import collections
import csv
import functools
import io
import math
import os
import tempfile
import tracemalloc
import unittest.mock

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
    reference_read_domain_file,
    reference_read_field_file,
    reference_read_graph_file,
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


def grid_graph(side):
    """The side x side grid with labels ``(i, j)``."""
    edges = [((i, j), (i, j + 1), 1.5) for i in range(side)
             for j in range(side - 1)]
    edges += [((i, j), (i + 1, j), 0.5) for i in range(side - 1)
              for j in range(side)]
    return build_finite_graph(edges, {(i, j): 1.25 for i in range(side)
                                      for j in range(side)})


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
        # every distinct token of the v and e lines goes through
        # parse_labels once (an endpoint spelled apart from its v line
        # too), and a field file on the graph parses none again
        from graphrothe import graph as graph_module

        path = tmp_path / "g.txt"
        calls = collections.Counter()
        parse = fileio.parse_labels

        def counting(tokens):
            calls.update(tokens)
            return parse(tokens)

        monkeypatch.setattr(fileio, "parse_labels", counting)
        for g in (materialize_ball(LatticeZ2(), [(0, 0)], 4),
                  mixed_label_graph()):
            fileio.write_graph_file(g, str(path))
            first = fileio.format_label(g.labels[0])
            text = path.read_text().replace(
                f"e {first} ", f"e {respelled(g.labels[0])} ", 1)
            path.write_text(text)
            tokens = {tok for line in text.splitlines()[1:]
                      for tok in line.split()[1:-1]}
            calls.clear()
            got = fileio.read_graph_file(str(path))
            assert calls == collections.Counter(tokens)
            assert len(tokens) == got.num_vertices + 1
            assert got.labels == g.labels and got.names == g.names
            fileio.write_field_file(VertexField(got, got.mu), str(path))
            parsed = []
            with monkeypatch.context() as patch:
                patch.setattr(graph_module, "parse_label", parsed.append)
                assert np.array_equal(
                    fileio.read_field_file(got, str(path)).values, got.mu)
            assert parsed == []

    def test_peak_memory_within_line_loop(self, tmp_path):
        g = grid_graph(30)
        path = str(tmp_path / "grid.txt")
        fileio.write_graph_file(g, path)

        def peak(read):
            read(path)
            tracemalloc.start()
            try:
                read(path)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(fileio.read_graph_file) \
            <= peak(reference_read_graph_file)

    def test_canonical_file_parses_no_label(self, tmp_path, monkeypatch):
        # the writer's own file of int-tuple labels is read in bulk; one
        # v token spelled another way sends every v token through
        # parse_label, to the same graph
        from graphrothe import graph as graph_module

        edges = [((i, j), (i, j + 1), 1.5) for i in range(30)
                 for j in range(29)]
        edges += [((i, j), (i + 1, j), 0.5) for i in range(29)
                  for j in range(30)]
        g = build_finite_graph(edges, {(i, j): 1.25 for i in range(30)
                                       for j in range(30)})
        path = tmp_path / "grid.txt"
        fileio.write_graph_file(g, str(path))
        calls = collections.Counter()
        parse = graph_module.parse_label

        def counting(token):
            calls[token] += 1
            return parse(token)

        monkeypatch.setattr(graph_module, "parse_label", counting)
        got, want = _graph_result(fileio.read_graph_file, str(path))
        assert calls == {}
        assert got.labels == g.labels and got.names == g.names
        path.write_text(path.read_text().replace("\nv 0,1 ", "\nv 0,+1 ",
                                                 1))
        assert _graph_result(fileio.read_graph_file, str(path))[1] == want
        assert sum(calls.values()) == g.num_vertices and calls["0,+1"] == 1

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


def respelled(label):
    """Another token that ``parse_label`` reads as the int or int-tuple
    ``label``: each part with a ``+`` or a leading zero."""
    parts = label if isinstance(label, tuple) else (label,)
    return ",".join(f"+{p}" if p >= 0 else f"-0{-p}" for p in parts)


# distinct canonical int or int-tuple tokens of one length: parts of up to
# 18 digits, negatives and 0
_CANONICAL_PART = st.one_of(st.integers(-3, 3),
                            st.integers(-10 ** 18 + 1, 10 ** 18 - 1))
CANONICAL_TOKENS = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.tuples(*[_CANONICAL_PART] * n), min_size=1, max_size=12,
    unique=True).map(lambda labels: [
        fileio.format_label(lab[0] if n == 1 else lab) for lab in labels]))
# parts that make a token not canonical, or not an int at all
NONCANONICAL_PARTS = ["+1", "01", "-0", "-01", "1_0", "\u0663",
                      "1234567890123456789", "-1234567890123456789",
                      "99999999999999999999", "a", "", "-", " 1", "1 2"]


def reference_parse_labels(tokens):
    """``parse_labels`` token by token: (labels, order, canonical)."""
    from graphrothe.graph import _label_key

    parsed = list(map(fileio.parse_label, tokens))
    order = sorted(range(len(tokens)),
                   key=lambda k: _label_key(parsed[k]))
    return ([parsed[k] for k in order], order,
            [fileio.format_label(lab) for lab in parsed] == list(tokens))


def _labels_result(result):
    labels, order, canonical = result
    return labels, order.tolist(), canonical


class TestLabels:
    def test_int_and_tuple_and_string(self):
        assert fileio.parse_label("3") == 3
        assert fileio.parse_label("-4") == -4
        assert fileio.parse_label("0,1") == (0, 1)
        assert fileio.parse_label("-2,7") == (-2, 7)
        assert fileio.parse_label("a") == "a"
        for lab in (3, -4, (0, 1), "a"):
            assert fileio.parse_label(fileio.format_label(lab)) == lab

    @settings(max_examples=300, deadline=None)
    @given(tokens=CANONICAL_TOKENS)
    def test_canonical_sets_match_per_token_reference(self, tokens):
        got = fileio.parse_labels(tokens)
        assert got[2] is True
        assert _labels_result(got) == reference_parse_labels(tokens)

    @settings(max_examples=300, deadline=None)
    @given(tokens=CANONICAL_TOKENS, data=st.data())
    def test_one_noncanonical_token_matches_reference(self, tokens, data):
        k = data.draw(st.integers(0, len(tokens) - 1))
        parts = tokens[k].split(",")
        bad = data.draw(st.sampled_from(NONCANONICAL_PARTS))
        how = data.draw(st.sampled_from(["part", "extra", "fewer", "whole"]))
        if how == "part":
            parts[data.draw(st.integers(0, len(parts) - 1))] = bad
        elif how == "extra":
            parts.append(data.draw(st.sampled_from(["1", bad])))
        elif how == "fewer" and len(parts) > 1:
            parts.pop()
        else:
            parts = [bad]
        tokens[k] = ",".join(parts)
        if len(set(tokens)) < len(tokens):
            return
        got = fileio.parse_labels(tokens)
        want = reference_parse_labels(tokens)
        assert _labels_result(got) == want
        if fileio.format_label(fileio.parse_label(tokens[k])) != tokens[k]:
            assert got[2] is False


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


def _edited(at, change):
    """An edit of a trajectory file's lines (header first, no line ends)
    that applies ``change`` to line ``at(V)`` and writes the lines back
    as the writer does."""
    def edit(lines, V):
        k = at(V)
        lines[k] = change(lines[k])
        return "\n".join(lines) + "\n"
    return edit


def _value_edited(change):
    """An edit of line 2's value cell by ``change``."""
    def cell(line):
        head, _, value = line.rpartition(",")
        return f"{head},{change(value)}"
    return _edited(lambda V: 2, cell)


# the writer's layout broken in ways _writer_steps declines; csv.reader
# reads some of them to the same steps and refuses the others
LAYOUT_EDITS = {
    "step_index_01": _edited(lambda V: 1 + V, "0".__add__),
    "step_index_quoted": _edited(lambda V: 1, lambda s: '"0"' + s[1:]),
    "cr_in_time": _edited(lambda V: 1, lambda s: s.replace(",", ",0.\r", 1)),
    "value_over_field_limit": _value_edited(
        lambda v: "0" * csv.field_size_limit() + "1"),
    "no_final_newline": lambda lines, V: "\n".join(lines),
    "blank_line_at_end": lambda lines, V: "\n".join(lines) + "\n\n",
    "row_dropped": lambda lines, V: "\n".join(lines[:3] + lines[4:]) + "\n",
    "row_duplicated": lambda lines, V: "\n".join(lines + lines[3:4]) + "\n",
    "value_quoted": _value_edited(lambda v: f'"{v}"'),
    "quote_in_value": _value_edited(lambda v: f'{v[:1]}"{v[1:]}'),
}


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

    @pytest.mark.parametrize("rows, want", [
        # the row of the second listing, and its label as parsed
        (["0,0.0,0,1.0", "0,0.0,1,1.0", "0,0.0,2,1.0", "1,0.5,2,1.0",
          "1,0.5,0,1.0", "1,0.5,02,1.0", "1,0.5,1,1.0"],
         "7: vertex 2 listed twice in step 1"),
        # a bad value on a later row comes before an earlier repeat
        (["0,0.0,0,1.0", "0,0.0,0,2.0", "0,0.0,1,nan", "0,0.0,2,1.0"],
         "4: non-finite value 'nan'"),
        # a label that is not the graph's, listed twice: a repeat
        (["0,0.0,0,1.0", "0,0.0,1,1.0", "0,0.0,zz,1.0", "0,0.0,2,1.0",
          "0,0.0,zz,1.0"],
         "6: vertex 'zz' listed twice in step 0"),
    ], ids=["repeat", "value-first", "unknown-repeat"])
    def test_row_fault_precedence(self, tmp_path, rows, want):
        g = path_graph(3)
        path = str(tmp_path / "traj.csv")
        with open(path, "w") as fh:
            fh.write("".join(f"{row}\n" for row in
                             ["i,t,vertex,value", *rows]))
        got = _outcome(fileio.read_trajectory_csv, path, g)
        assert got == (InvalidGraphData, f"{path}:{want}")
        assert got == _outcome(reference_read_trajectory_csv, path, g)

    @pytest.mark.parametrize("graph", [
        lambda: path_graph(5), lambda: grid_graph(4), mixed_label_graph,
        lambda: build_finite_graph(
            [("a,b", 'say"hi"', 1.0), ('say"hi"', 'x,"y"', 1.0),
             ('x,"y"', ",", 1.0)], {"a,b": 1.0, 'say"hi"': 1.0,
                                    'x,"y"': 1.0, ",": 1.0})],
        ids=["int", "pair", "mixed", "string"])
    def test_writer_layout_skips_csv_reader(self, tmp_path, monkeypatch,
                                            graph):
        g = graph()
        values = np.random.default_rng(5).standard_normal(
            (3, g.num_vertices))
        values[1, 0] = -0.0
        times = [0.0, 0.25, 1e-300]
        path = str(tmp_path / "traj.csv")
        fileio.write_trajectory_csv(path, values, times, g)
        want = _outcome(reference_read_trajectory_csv, path, g)
        assert want == (np.array(times).tobytes(), values.shape,
                        values.tobytes())

        def refuse(path):
            raise AssertionError("read by csv.reader")

        monkeypatch.setattr(fileio, "_csv_rows", refuse)
        assert _outcome(fileio.read_trajectory_csv, path, g) == want

    @pytest.mark.parametrize("edit", sorted(LAYOUT_EDITS))
    def test_other_layouts_read_as_reference(self, tmp_path, edit):
        g = mixed_label_graph()
        values = np.random.default_rng(6).standard_normal(
            (2, g.num_vertices))
        path = str(tmp_path / "traj.csv")
        fileio.write_trajectory_csv(path, values, [0.0, 0.5], g)
        with open(path, newline="") as fh:
            lines = fh.read().split("\n")[:-1]
        with open(path, "w", newline="") as fh:
            fh.write(LAYOUT_EDITS[edit](lines, g.num_vertices))
        assert fileio._writer_steps(path, g) is None
        assert _outcome(fileio.read_trajectory_csv, path, g) == \
            _outcome(reference_read_trajectory_csv, path, g)

    def test_peak_memory_within_csv_reader(self, tmp_path, monkeypatch):
        g = grid_graph(120)
        path = str(tmp_path / "traj.csv")
        fileio.write_trajectory_csv(
            path, np.random.default_rng(7).standard_normal(
                (21, g.num_vertices)), np.linspace(0.0, 1.0, 21), g)

        def peak():
            tracemalloc.start()
            try:
                fileio.read_trajectory_csv(path, g)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        fast = peak()
        # without the writer-layout pass, every file takes the csv.reader
        # path, the reader this pass was added in front of
        monkeypatch.setattr(fileio, "_writer_steps", lambda path, g: None)
        assert fast <= peak()

    def test_oversized_field_refused(self, tmp_path):
        # csv.reader refuses a field over its size limit: an input error
        path = tmp_path / "traj.csv"
        path.write_text("i,t,vertex,value\n0,0.0," + "7" * 200_000 + "\n")
        with pytest.raises(InvalidGraphData) as info:
            fileio.read_trajectory_csv(str(path), path_graph(2))
        assert str(info.value).startswith(f"{path}:2: field larger than")


# Generated graph, domain and field files. Labels of one kind (ints, int
# pairs and triples, strings, ints beyond int64) or of all kinds mixed,
# spelled as written or another way (``+1``, ``01``, ``-01``), and lines in
# any order, with comments, blank lines, CRLF or CR line ends, bytes that
# are not UTF-8, and each kind of faulty record and value.
FILE_LABELS = {
    "int": st.integers(-30, 30),
    "pair": st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    "triple": st.tuples(*[st.integers(-2, 2)] * 3),
    "string": st.text(alphabet="ab,x-_+01", min_size=1, max_size=4).filter(
        lambda s: fileio.parse_label(s) == s),
    "bigint": st.one_of(st.integers(2 ** 63 - 2, 2 ** 63 + 2),
                        st.integers(-2 ** 63 - 2, -2 ** 63 + 1),
                        st.integers(-3, 3)),
}
FILE_LABELS["mixed"] = st.one_of(*FILE_LABELS.values())
GOOD_NUMBERS = ["1.0", "0.5", "2", "1e-3", "1_0", "+3", "0.25", "7e2"]
BAD_NUMBERS = ["0", "-1", "nan", "inf", "abc", "1e999", "0x1p3", "-0.0",
               "1e-320"]
GRAPH_JUNK = ["v 3", "edge 0 1 1.0", "e 1 2", "graph", "v a b c", "x",
              "e zz 0 1.0", "e 99 0 1.0", "graph 1 2", "v", "e 0 0 1.0"]
DOMAIN_JUNK = ["omega", "omega 1 2", "interior 2", "omega zz", "omega 99"]
FIELD_JUNK = ["zz 1.0", "1.0", "a b c", "99 2.0"]


def _rarely(draw, odds):
    """True once in ``odds`` draws."""
    return draw(st.sampled_from([False] * (odds - 1) + [True]))


def _numbers(draw):
    """A drawer of measure, weight and value tokens: all good, or, in one
    file of four, bad once in four draws."""
    odds = 4 if _rarely(draw, 4) else 0
    return lambda: draw(st.sampled_from(
        BAD_NUMBERS if odds and _rarely(draw, odds) else GOOD_NUMBERS))


def _spelling(draw, label):
    """The label's token as written, or (for an int or int tuple) another
    token that reads as it."""
    if isinstance(label, str) or not _rarely(draw, 4):
        return fileio.format_label(label)
    parts = label if isinstance(label, tuple) else (label,)
    return ",".join(draw(st.sampled_from(
        [f"+{p}", f"0{p}"] if p >= 0 else [f"-0{-p}", str(p)]))
        for p in parts)


def _text(draw, lines, junk):
    """The file of ``lines`` with comments and blank lines, in one file
    of four a line of ``junk``, line ends of one or more kinds, and in
    one file of twelve a byte that is not UTF-8."""
    lines = list(lines)
    extra = draw(st.lists(st.sampled_from(["", "  ", "# note"]),
                          max_size=2))
    if _rarely(draw, 4):
        extra.append(draw(st.sampled_from(junk)))
    for line in extra:
        lines.insert(draw(st.integers(0, len(lines))), line)
    lines = [line + draw(st.sampled_from(["", "", " # c", "#x"]))
             for line in lines]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1,
                         max_size=2))
    data = "".join(line + draw(st.sampled_from(ends))
                   for line in lines).encode()
    if _rarely(draw, 12):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@st.composite
def input_files(draw):
    """Bytes of a graph file, a domain file and a field file on it."""
    kind = draw(st.sampled_from(sorted(FILE_LABELS)))
    labels = draw(st.lists(FILE_LABELS[kind], max_size=7,
                           unique_by=fileio.format_label))
    n = len(labels)
    spell = functools.partial(_spelling, draw)
    number = _numbers(draw)
    lines = [f"v {spell(lab)} {number()}" for lab in labels]
    pairs = [(draw(st.integers(0, k - 1)), k) for k in range(1, n)]
    if n and _rarely(draw, 3):
        pairs.append(draw(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1))))
    for x, y in pairs:
        if draw(st.booleans()):
            x, y = y, x
        lines.append(f"e {spell(labels[x])} {spell(labels[y])} {number()}")
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    header = "missing" if _rarely(draw, 8) else draw(st.sampled_from(
        ["first", "first", "anywhere", "twice"]))
    for _ in range({"missing": 0, "twice": 2}.get(header, 1)):
        at = 0 if header == "first" else draw(st.integers(0, len(lines)))
        lines.insert(at, f"graph {n}")
    picks = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=5)) \
        if n else []
    domain = [f"omega {spell(labels[k])}" for k in picks]
    field = [f"{spell(labels[k])} {number()}" for k in set(picks)]
    if picks and _rarely(draw, 4):
        field.append(f"{spell(labels[picks[0]])} {number()}")
    return (_text(draw, lines, GRAPH_JUNK), _text(draw, domain, DOMAIN_JUNK),
            _text(draw, field, FIELD_JUNK))


def write_input_files(directory, files):
    """The paths of the graph, domain and field files ``files`` written
    into ``directory``."""
    paths = [os.path.join(directory, name)
             for name in ("graph.txt", "domain.txt", "field.txt")]
    for path, data in zip(paths, files):
        with open(path, "wb") as fh:
            fh.write(data)
    return paths


def _result(read, *args):
    """What ``read(*args)`` gives: its result, or its error's type and
    message."""
    try:
        return read(*args)
    except GraphrotheError as exc:
        return type(exc), str(exc)


def _graph_result(read, path):
    """(graph or None, what ``read(path)`` gives as comparable values)."""
    g = _result(read, path)
    if isinstance(g, tuple):
        return None, g
    return g, (g.labels, g.names, g.indptr.tolist(), g.indices.tolist(),
               g.weights.tobytes(), g.mu.tobytes(), g.complete.tolist())


def _field_bytes(read, g, path):
    values = read(g, path)
    return getattr(values, "values", values).tobytes()


class TestBulkReaders:
    """The bulk readers give the graph, names, domain and field of the
    line loop (``helpers.reference_read_*_file``), or its error's type
    and message, on generated files, in blocks of any size."""

    @settings(max_examples=200, deadline=None)
    @given(files=input_files(), block=st.sampled_from([1, 64, 1 << 13]))
    def test_match_line_loop(self, files, block):
        with tempfile.TemporaryDirectory() as tmp, \
                unittest.mock.patch.object(fileio, "_BLOCK", block):
            gpath, dpath, fpath = write_input_files(tmp, files)
            g, got = _graph_result(fileio.read_graph_file, gpath)
            ref, want = _graph_result(reference_read_graph_file, gpath)
            assert got == want
            if g is None:
                return
            assert _result(fileio.read_domain_file, g, dpath) == \
                _result(reference_read_domain_file, ref, dpath)
            assert _result(_field_bytes, fileio.read_field_file, g,
                            fpath) == \
                _result(_field_bytes, reference_read_field_file, ref, fpath)

    @pytest.mark.parametrize("at", [15_000, 30_000])
    def test_not_utf8_names_offset_in_file(self, tmp_path, at):
        # the offset is in the file, not in the decoder's chunk of it
        g = path_graph(5000)
        paths = {name: str(tmp_path / name) for name in
                 ("graph.txt", "domain.txt", "field.txt", "traj.csv")}
        fileio.write_graph_file(g, paths["graph.txt"])
        with open(paths["domain.txt"], "w") as fh:
            fh.writelines(f"omega {k}\n" for k in range(g.num_vertices))
        fileio.write_field_file(VertexField(g, g.mu), paths["field.txt"])
        fileio.write_trajectory_csv(paths["traj.csv"],
                                    np.ones((2, g.num_vertices)), [0.0, 1.0],
                                    g)
        reads = {
            "graph.txt": (fileio.read_graph_file, reference_read_graph_file),
            "domain.txt": (lambda p: fileio.read_domain_file(g, p),
                           lambda p: reference_read_domain_file(g, p)),
            "field.txt": (lambda p: fileio.read_field_file(g, p),
                          lambda p: reference_read_field_file(g, p)),
            "traj.csv": (lambda p: fileio.read_trajectory_csv(p, g),
                         lambda p: reference_read_trajectory_csv(p, g))}
        for name, path in paths.items():
            with open(path, "rb") as fh:
                data = fh.read()
            assert len(data) > at
            with open(path, "wb") as fh:
                fh.write(data[:at] + b"\xff" + data[at:])
            for read in reads[name]:
                assert _result(read, path) == (
                    InvalidGraphData, f"{path}: not UTF-8 text (invalid "
                    f"start byte at byte {at})")
