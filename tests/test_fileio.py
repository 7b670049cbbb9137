import numpy as np
import pytest

from graphrothe import VertexField, fileio
from graphrothe.errors import InvalidGraphData, IoError
from helpers import path_graph


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

    def test_round_trip(self, tmp_path):
        g = path_graph(4)
        h = VertexField.from_mapping(g, {1: 0.1, 3: -2.75})
        path = tmp_path / "h.txt"
        fileio.write_field_file(h, str(path))
        again = fileio.read_field_file(g, str(path))
        assert np.array_equal(h.values, again.values)


class TestDomainFile:
    def test_read(self, tmp_path):
        path = tmp_path / "dom.txt"
        path.write_text("omega 1\nomega 2\nomega 3\n")
        assert fileio.read_domain_file(str(path)) == [1, 2, 3]

    def test_bad_line(self, tmp_path):
        path = tmp_path / "dom.txt"
        path.write_text("omega 1\ninterior 2\n")
        with pytest.raises(InvalidGraphData):
            fileio.read_domain_file(str(path))


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
        from graphrothe import LatticeZ2, materialize_ball
        g = materialize_ball(LatticeZ2(), [(0, 0)], 1)
        fields = [VertexField.from_mapping(g, {(0, 0): 1.0}),
                  VertexField.from_mapping(g, {(0, 1): -2.0})]
        path = tmp_path / "traj.csv"
        fileio.write_trajectory_csv(str(path), fields, [0.0, 1.0], g)
        _, steps = fileio.read_trajectory_csv(str(path))
        assert steps[0][(0, 0)] == 1.0
        assert steps[1][(0, 1)] == -2.0
        assert steps[1][(1, 0)] == 0.0
