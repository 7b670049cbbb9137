import collections
import csv
import io
import math

import numpy as np
import pytest

from graphrothe import VertexField, build_finite_graph, fileio
from graphrothe import LatticeZ2, materialize_ball
from graphrothe.errors import DuplicateEdge, InvalidGraphData, IoError
from helpers import path_graph, random_connected_graph


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
        fileio.write_trajectory_csv(str(path), fields, times, g)
        rtimes, steps = fileio.read_trajectory_csv(str(path))
        assert rtimes == times
        assert steps[2][1] == 2.0 and steps[0][0] == 0.0

    def test_none_becomes_empty(self, tmp_path):
        path = tmp_path / "x.csv"
        fileio.write_csv(str(path), ("a", "b"), [(1, None)])
        assert path.read_text() == "a,b\n1,\n"

    def test_tuple_labels_round_trip(self, tmp_path):
        g = materialize_ball(LatticeZ2(), [(0, 0)], 1)
        fields = [VertexField.from_mapping(g, {(0, 0): 1.0}),
                  VertexField.from_mapping(g, {(0, 1): -2.0})]
        path = tmp_path / "traj.csv"
        fileio.write_trajectory_csv(str(path), fields, [0.0, 1.0], g)
        _, steps = fileio.read_trajectory_csv(str(path))
        assert steps[0][(0, 0)] == 1.0
        assert steps[1][(0, 1)] == -2.0
        assert steps[1][(1, 0)] == 0.0


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
        fileio.write_trajectory_csv(str(path), fields, times, g)
        text = path.read_bytes().decode("utf-8")
        assert text == reference_trajectory_csv(fields, times, g)
        assert '"a,b"' in text and '"say""hi"""' in text
        fileio.write_trajectory_csv(str(tmp_path / "empty.csv"), [], [], g)
        assert (tmp_path / "empty.csv").read_text() == \
            reference_trajectory_csv([], [], g)

        rtimes, steps = fileio.read_trajectory_csv(str(path))
        assert rtimes == [float(t) for t in times]
        for u, step in zip(fields, steps, strict=True):
            assert list(step) == list(g.labels)
            for lab, v in zip(g.labels, u.values):
                assert step[lab] == v
                assert math.copysign(1.0, step[lab]) == math.copysign(1.0, v)

    def test_field_file(self, tmp_path):
        g = mixed_label_graph()
        path = tmp_path / "h.txt"
        for field in self._fields(g):
            fileio.write_field_file(field, str(path))
            assert path.read_bytes().decode("utf-8") == \
                reference_field_file(field)
