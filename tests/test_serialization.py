import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cstarmech.algebra import AlgebraElement
from cstarmech.errors import InvalidInputError
from cstarmech.gns import AbstractState, gns_construct
from cstarmech.sampling import random_density, random_element
from cstarmech.serialization import (
    dump_json,
    gns_result_to_json,
    matrix_from_json,
    matrix_to_json,
    measure_from_json,
    measure_to_json,
    trajectory_to_csv,
    wavefunction_from_csv,
    wavefunction_to_csv,
)
from cstarmech.spectral import spectral_measure
from cstarmech.states import DensityState
from cstarmech.weyl import Grid1D, WaveFunction


class TestMatrixJson:
    def test_round_trip(self, rng):
        m = random_element(rng, 4).entries
        np.testing.assert_array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_survives_json_text(self, rng):
        m = random_element(rng, 3).entries
        text = json.dumps(matrix_to_json(m))
        np.testing.assert_array_equal(matrix_from_json(json.loads(text)), m)

    def test_malformed_rejected(self):
        with pytest.raises(InvalidInputError):
            matrix_from_json([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(InvalidInputError):
            matrix_from_json([[["x", "y"]]])


class TestMeasureJson:
    def test_round_trip(self, rng):
        from cstarmech.sampling import random_selfadjoint

        mu = spectral_measure(random_density(rng, 4), random_selfadjoint(rng, 4))
        back = measure_from_json(measure_to_json(mu), source_dim=4)
        assert back.atoms == mu.atoms
        assert back.source_dim == mu.source_dim


class TestGnsJson:
    def test_fields_present_and_json_safe(self, rng):
        from cstarmech.algebra import generate_algebra

        basis = generate_algebra(
            [AlgebraElement([[0, 1], [1, 0]]), AlgebraElement([[1, 0], [0, -1]])]
        )
        res = gns_construct(AbstractState.from_density(basis, random_density(rng, 2)))
        data = gns_result_to_json(res)
        text = json.dumps(data, sort_keys=True)
        assert json.loads(text)["hilbert_dim"] == res.hilbert_dim
        back = matrix_from_json(data["rep"][0])
        np.testing.assert_array_equal(back, np.asarray(res.rep[0]))


class TestWaveFunctionCsv:
    def test_round_trip(self):
        g = Grid1D(N=32, L=8.0)
        psi = WaveFunction.gaussian(g, x0=0.7, p0=1.2, sigma=0.9)
        body, meta = wavefunction_to_csv(psi)
        back = wavefunction_from_csv(body, meta)
        np.testing.assert_array_equal(back.samples, psi.samples)
        assert back.grid == g

    def test_wrong_length_rejected(self):
        g = Grid1D(N=32, L=8.0)
        body, meta = wavefunction_to_csv(WaveFunction.gaussian(g))
        meta = dict(meta, N=64)
        with pytest.raises(InvalidInputError):
            wavefunction_from_csv(body, meta)


def reference_trajectory_csv(columns: dict) -> str:
    """trajectory_to_csv's bytes, one csv.writer row at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(columns))
    for row in zip(*(np.asarray(c) for c in columns.values())):
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue()


EDGE_FLOATS = st.sampled_from(
    [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1 + 0.2])


@st.composite
def csv_columns(draw):
    """Equal-length float and int columns, zero rows included."""
    rows = draw(st.integers(0, 12))
    columns = {}
    for i in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            elements = st.floats(allow_nan=True, allow_infinity=True) | EDGE_FLOATS
            columns[f"f{i}"] = draw(hnp.arrays(float, rows, elements=elements))
        else:
            columns[f"i{i}"] = draw(hnp.arrays(np.int64, rows))
    return columns


class TestTrajectoryCsv:
    @given(csv_columns())
    def test_matches_row_by_row_csv_writer(self, columns):
        assert trajectory_to_csv(columns) == reference_trajectory_csv(columns)

    def test_edge_floats_match_reference(self):
        vals = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308]
        columns = {"v": np.array(vals), "n": np.arange(6)}
        text = trajectory_to_csv(columns)
        assert text == reference_trajectory_csv(columns)
        assert text.split("\n")[1:4] == ["nan,0.0", "inf,1.0", "-inf,2.0"]
        # wavefunction_to_csv writes its body through the same formatter
        psi = WaveFunction.gaussian(Grid1D(N=16, L=4.0), x0=0.3, p0=-1.1, sigma=0.5)
        columns = {"x": psi.grid.points, "re_psi": psi.samples.real,
                   "im_psi": psi.samples.imag}
        assert wavefunction_to_csv(psi)[0] == reference_trajectory_csv(columns)

    def test_zero_rows_is_header_only(self):
        assert trajectory_to_csv({"t": [], "x": []}) == "t,x\n"

    def test_layout(self):
        text = trajectory_to_csv({"t": [0.0, 0.1], "x": [1.0, 2.0]})
        lines = text.strip().split("\n")
        assert lines[0] == "t,x"
        assert lines[1] == "0.0,1.0"

    def test_repr_floats_lossless(self):
        vals = [0.1 + 0.2, np.pi, 1e-17]
        text = trajectory_to_csv({"v": vals})
        got = [float(s) for s in text.strip().split("\n")[1:]]
        assert got == vals

    def test_unequal_columns_rejected(self):
        with pytest.raises(InvalidInputError):
            trajectory_to_csv({"a": [1.0], "b": [1.0, 2.0]})


class TestDeterminism:
    def test_dump_json_stable_bytes(self, tmp_path, rng):
        obj = {"b": 1.25, "a": [1, 2, 3], "c": {"y": 0.5, "x": -1}}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        dump_json(obj, p1)
        dump_json(obj, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().startswith('{\n  "a"')

    def test_csv_stable_text(self, rng):
        cols = {"t": rng.standard_normal(50), "x": rng.standard_normal(50)}
        assert trajectory_to_csv(cols) == trajectory_to_csv(cols)
