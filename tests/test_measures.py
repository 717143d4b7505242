import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frgeo import io as fio
from frgeo.exceptions import (
    FRGeoError,
    MeasureFormatError,
    NotHermitianError,
    SupportMismatchError,
    ZeroAtomError,
    ZeroMassError,
)
from frgeo.measures import (
    MatrixMeasure,
    ReferenceMeasure,
    Support,
    lebesgue_split,
    make_support,
    mass,
    normalize_to_sphere,
    reference_identity,
    scale_measure,
    trace_density,
    tv_distance,
    tv_norm,
    uniform_reference,
)
from frgeo.testing import random_measure, random_probability_measure


def single_atom(atom, label="p1"):
    return MatrixMeasure(Support((label,)), np.asarray(atom, dtype=complex)[None])


# The byte-identity oracle for the writers: the documents built as nested
# Python values and serialized by a recursive walk, floats with 17
# significant digits.


def _emit(obj) -> str:
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise MeasureFormatError(f"cannot serialize non-finite value {x!r}")
        text = format(x, ".17g")
        # Keep a decimal marker so the value parses back as a float
        # (plain "-0" would round-trip through an int and drop the sign).
        if "." not in text and "e" not in text and "E" not in text:
            text += ".0"
        return text
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_emit(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def measure_to_doc(g) -> dict:
    pairs = np.stack([g.atoms.real, g.atoms.imag], axis=-1).tolist()
    return {
        "dim": g.dim,
        "support": list(g.support.point_ids),
        "atoms": [{"point": pid, "matrix": pairs[i]} for i, pid in enumerate(g.support.point_ids)],
    }


def path_to_doc(times, slices) -> list:
    return [{"time": float(t), "measure": measure_to_doc(g)} for t, g in zip(times, slices, strict=True)]


def reference_to_doc(lam) -> dict:
    return {"dim": lam.dim, "support": list(lam.support.point_ids), "weights": [float(w) for w in lam.weights]}


def walked_atoms(doc) -> np.ndarray:
    """The atoms of a measure document converted entry by entry, each pair as
    ``complex(float(re), float(im))``, in support order: the loader's
    reference for bit identity."""
    by_point = {a["point"]: a["matrix"] for a in doc["atoms"]}
    return np.array(
        [[[complex(float(re), float(im)) for re, im in row] for row in by_point[pid]] for pid in doc["support"]]
    )


class TestSupport:
    def test_labels_unique(self):
        with pytest.raises(FRGeoError):
            Support(("a", "a"))

    def test_make_support(self):
        assert make_support(3).point_ids == ("p1", "p2", "p3")


class TestMatrixMeasureChecks:
    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_atom_rejected(self, value):
        atoms = np.stack([np.eye(2), np.eye(2)]).astype(complex)
        atoms[1, 1, 0] = value
        with pytest.raises(NotHermitianError, match=r"atom at point 'q' has a non-finite entry at \(1, 0\)"):
            MatrixMeasure(Support(("p", "q")), atoms)


class TestTvNorm:
    def test_zero_measure(self):
        assert tv_norm(MatrixMeasure.zeros(make_support(3), 2)) == 0.0

    def test_single_identity_atom(self):
        assert tv_norm(single_atom(np.eye(2))) == pytest.approx(np.sqrt(2.0))

    def test_two_projector_atoms(self):
        # Oracle: sum of per-atom Frobenius norms, 1 + 1.
        g = MatrixMeasure(
            make_support(2), np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        )
        assert tv_norm(g) == pytest.approx(2.0)

    def test_distance_support_mismatch(self, rng):
        a = random_measure(rng, 2, 2)
        b = random_measure(rng, 3, 2)
        with pytest.raises(SupportMismatchError):
            tv_distance(a, b)

    def test_triangle_inequality(self, rng):
        for _ in range(100):
            n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            sup = make_support(n)
            a, b, c = (random_measure(rng, n, d, support=sup) for _ in range(3))
            assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-10


class TestMass:
    def test_reference_identity_has_unit_mass(self):
        lam = uniform_reference(make_support(4), 3)
        assert mass(reference_identity(lam)) == pytest.approx(1.0, abs=1e-12)

    def test_scaled_identity(self):
        assert mass(single_atom(3.0 * np.eye(2))) == pytest.approx(6.0)

    def test_zero(self):
        assert mass(MatrixMeasure.zeros(make_support(2), 2)) == 0.0


class TestTraceDensity:
    def test_scaled_identity(self):
        got = trace_density(single_atom(5.0 * np.eye(2)), 0)
        assert np.allclose(got, np.eye(2) / 2.0)

    def test_diagonal(self):
        got = trace_density(single_atom(np.diag([3.0, 1.0])), 0)
        assert np.allclose(got, np.diag([0.75, 0.25]))

    def test_unit_trace(self, rng):
        g = random_measure(rng, 3, 3)
        for i in range(g.n):
            assert np.real(np.trace(trace_density(g, i))) == pytest.approx(1.0, abs=1e-12)

    def test_zero_atom(self):
        with pytest.raises(ZeroAtomError):
            trace_density(MatrixMeasure.zeros(make_support(1), 2), 0)


class TestLebesgueSplit:
    def test_everywhere_positive(self, rng):
        g = random_measure(rng, 3, 2)
        lam = uniform_reference(g.support, 2)
        ac, sing = lebesgue_split(g, lam)
        assert np.array_equal(ac.atoms, g.atoms)
        assert tv_norm(sing) == 0.0

    def test_mixed_pointwise(self, rng):
        g = random_measure(rng, 2, 2)
        lam = ReferenceMeasure(g.support, 2, np.array([0.5, 0.0]))
        ac, sing = lebesgue_split(g, lam)
        assert np.array_equal(ac.atoms[0], g.atoms[0])
        assert np.all(ac.atoms[1] == 0)
        assert np.all(sing.atoms[0] == 0)
        assert np.array_equal(sing.atoms[1], g.atoms[1])

    def test_parts_sum_back(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            g = random_measure(rng, n, 2)
            w = rng.uniform(0, 1, n)
            w[rng.random(n) < 0.4] = 0.0
            if w.sum() == 0:
                w[0] = 1.0
            lam = ReferenceMeasure(g.support, 2, w / (2 * w.sum()))
            ac, sing = lebesgue_split(g, lam)
            assert np.array_equal(ac.atoms + sing.atoms, g.atoms)


class TestNormalizeToSphere:
    def test_already_normalized(self, rng):
        g = random_probability_measure(rng, 3, 2)
        sphere, r = normalize_to_sphere(g)
        assert r == pytest.approx(1.0, abs=1e-9)
        assert tv_distance(sphere, g) <= 1e-12

    def test_scaling(self, rng):
        g = random_probability_measure(rng, 2, 2)
        sphere, r = normalize_to_sphere(scale_measure(g, 4.0))
        assert r == pytest.approx(2.0, abs=1e-12)
        assert tv_distance(sphere, g) <= 1e-12

    def test_apex_raises(self):
        with pytest.raises(ZeroMassError):
            normalize_to_sphere(MatrixMeasure.zeros(make_support(1), 2))

    def test_round_trip(self, rng):
        g = random_measure(rng, 3, 3)
        sphere, r = normalize_to_sphere(g)
        assert tv_distance(scale_measure(sphere, r * r), g) <= 1e-12 * max(1.0, mass(g))


class TestReferenceMeasure:
    def test_uniform_weights(self):
        lam = uniform_reference(make_support(4), 2)
        assert np.allclose(lam.weights, 1.0 / 8.0)

    def test_normalization_enforced(self):
        with pytest.raises(FRGeoError):
            ReferenceMeasure(make_support(2), 2, np.array([1.0, 1.0]))

    def test_negative_weights_rejected(self):
        with pytest.raises(FRGeoError):
            ReferenceMeasure(make_support(2), 1, np.array([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(FRGeoError, match="non-finite"):
            ReferenceMeasure(make_support(2), 1, np.array([1.0, bad]))


class TestMeasureFiles:
    def test_round_trip_bit_identical(self, rng, tmp_path):
        g = random_measure(rng, 3, 2)
        p = os.path.join(tmp_path, "m.json")
        fio.save_measure(p, g)
        g2 = fio.load_measure(p)
        assert np.array_equal(g.atoms, g2.atoms)
        assert g2.support.point_ids == g.support.point_ids
        fio.save_measure(p, g2)
        assert np.array_equal(fio.load_measure(p).atoms, g2.atoms)

    def test_schema_field_names(self, rng, tmp_path):
        g = random_measure(rng, 2, 2)
        p = os.path.join(tmp_path, "m.json")
        fio.save_measure(p, g)
        with open(p) as f:
            doc = json.load(f)
        assert set(doc) == {"dim", "support", "atoms"}
        assert set(doc["atoms"][0]) == {"point", "matrix"}
        entry = doc["atoms"][0]["matrix"][0][0]
        assert isinstance(entry, list) and len(entry) == 2

    def test_rejects_non_hermitian_and_reports_entry(self, tmp_path):
        doc = {
            "dim": 2,
            "support": ["p1"],
            "atoms": [
                {"point": "p1", "matrix": [[[1, 0], [0.5, 0.25]], [[0.5, 0], [1, 0]]]}
            ],
        }
        p = os.path.join(tmp_path, "bad.json")
        with open(p, "w") as f:
            json.dump(doc, f)
        with pytest.raises(MeasureFormatError, match=r"\(0, 1\)"):
            fio.load_measure(p)

    def test_non_hermitian_error_is_the_measure_error(self, tmp_path):
        bad = [[[1, 0], [0.5, 0.25]], [[0.5, 0], [1, 0]]]
        doc = {
            "dim": 2,
            "support": ["a", "b"],
            "atoms": [{"point": "a", "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}, {"point": "b", "matrix": bad}],
        }
        p = os.path.join(tmp_path, "bad.json")
        with open(p, "w") as f:
            json.dump(doc, f)
        with pytest.raises(MeasureFormatError) as from_file:
            fio.load_measure(p)
        atoms = np.array([np.eye(2), [[complex(*e) for e in row] for row in bad]])
        with pytest.raises(NotHermitianError) as from_measure:
            MatrixMeasure(Support(("a", "b")), atoms)
        assert str(from_file.value) == str(from_measure.value)
        assert "atom at point 'b'" in str(from_file.value) and "(0, 1)" in str(from_file.value)

    def test_writers_match_recursive_emit_bytes(self, tmp_path):
        from types import SimpleNamespace

        values = [-0.0, 0.0, 1.0, -3.0, 2.0**52, 1e16, 99999999999999984.0, 1e17, 0.1, 1e-5,
                  5e-324, -2.5e-310, 1e308, -1e308]
        gen = np.random.default_rng(3)
        p = os.path.join(tmp_path, "out.json")
        for d in (1, 2, 3):
            atoms = gen.choice(values, (4, d, d)) + 1j * gen.choice(values, (4, d, d))
            # MatrixMeasure hermitizes through (a + a*) / 2, which overflows at
            # 1e308, and ReferenceMeasure checks normalization; the writers
            # read only these fields.
            g = SimpleNamespace(support=make_support(4), dim=d, atoms=atoms)
            fio.save_measure(p, g)
            with open(p) as f:
                assert f.read() == _emit(measure_to_doc(g)) + "\n"
            for times in ([0.0, 0.5, 1.0], gen.choice(values, 3)):
                fio.save_measure_path(p, times, [g] * 3)
                with open(p) as f:
                    assert f.read() == _emit(path_to_doc(times, [g] * 3)) + "\n"
            lam = SimpleNamespace(support=make_support(len(values)), dim=d, weights=np.array(values))
            fio.save_reference(p, lam)
            with open(p) as f:
                assert f.read() == _emit(reference_to_doc(lam)) + "\n"

    def test_path_writer_matches_recursive_emit_bytes(self, rng, tmp_path):
        # Slices with different patterns of integral values, on two supports
        # whose ids hold %, quotes and non-ASCII characters: each slice's
        # document comes from the template of its own support and pattern.
        odd = Support(("50%", 'say "hi"', "%(x)s%d", "Zürich ∞"))
        plain = make_support(4)
        eye = np.stack([np.eye(2)] * 4).astype(complex)
        slices = [
            MatrixMeasure(odd, eye),
            random_measure(rng, 4, 2, support=odd),
            MatrixMeasure(odd, eye / 3.0),
            random_measure(rng, 4, 2, support=plain),
            random_measure(rng, 4, 2, support=odd),
            MatrixMeasure(odd, 2.0 * eye),
        ]
        times = [0.0, 0.2, 0.5, 1.0, 3.0, 1e-300]
        p = os.path.join(tmp_path, "path.json")
        fio.save_measure_path(p, times, slices)
        with open(p, encoding="utf-8") as f:
            assert f.read() == _emit(path_to_doc(times, slices)) + "\n"
        times2, slices2 = fio.load_measure_path(p)
        assert times2 == times
        assert [g.support for g in slices2] == [g.support for g in slices]
        for a, b in zip(slices, slices2):
            assert a.atoms.tobytes() == b.atoms.tobytes()

    def test_path_writer_rejects_non_finite_slice(self, rng, tmp_path):
        g = random_measure(rng, 3, 2)
        bad = g.with_atoms(g.atoms)
        bad.atoms[2, 1, 0] = complex(np.nan, 0.5)
        p = os.path.join(tmp_path, "path.json")
        for times, slices in (([0.0, 0.5, 1.0], [g, bad, g]), ([0.0, math.inf], [g, g])):
            with pytest.raises(MeasureFormatError, match="non-finite value") as err:
                fio.save_measure_path(p, times, slices)
            with pytest.raises(MeasureFormatError) as reference:
                _emit(path_to_doc(times, slices))
            assert str(err.value) == str(reference.value)

    def test_writers_reject_non_finite(self, rng, tmp_path):
        from types import SimpleNamespace

        g = random_measure(rng, 2, 2)
        atoms = g.atoms.copy()
        atoms[1, 0, 1] = complex(0.5, np.inf)
        g = SimpleNamespace(support=g.support, dim=g.dim, atoms=atoms)
        with pytest.raises(MeasureFormatError) as reference:
            _emit(measure_to_doc(g))
        p = os.path.join(tmp_path, "out.json")
        for write in (lambda: fio.save_measure(p, g), lambda: fio.save_measure_path(p, [0.0], [g])):
            with pytest.raises(MeasureFormatError) as err:
                write()
            assert str(err.value) == str(reference.value)
        lam = SimpleNamespace(support=make_support(2), dim=2, weights=np.array([0.25, np.nan]))
        with pytest.raises(MeasureFormatError) as reference:
            _emit(reference_to_doc(lam))
        with pytest.raises(MeasureFormatError) as err:
            fio.save_reference(p, lam)
        assert str(err.value) == str(reference.value)

    def test_loader_bits_match_entry_walk(self, tmp_path):
        # Integral values (JSON integers and floats), signed zeros and
        # subnormals load to the same bits as a complex(float(re),
        # float(im)) walk over the entries, and so do integers beyond int64.
        values = [0, -0.0, 0.0, 3, -7, 2**53 + 1, 2**63, 2**64 + 1, 12345678901234567890123, 1.0, -2.0,
                  5e-324, -5e-324, 2.2250738585072009e-308, -1.5e-310, 0.1, 1e300]
        gen = np.random.default_rng(5)
        p = os.path.join(tmp_path, "m.json")
        for d in (1, 2, 3):
            matrices = []
            for _ in range(3):
                # Exactly Hermitian, so that hermitization keeps every bit.
                m = [[None] * d for _ in range(d)]
                for r in range(d):
                    m[r][r] = [values[gen.integers(len(values))], 0]
                    for c in range(r + 1, d):
                        re, im = values[gen.integers(len(values))], values[gen.integers(len(values))]
                        m[r][c], m[c][r] = [re, im], [re, -im]
                matrices.append(m)
            doc = {
                "dim": d,
                "support": ["a", "b", "c"],
                "atoms": [{"point": pid, "matrix": matrices[i]} for i, pid in zip((2, 0, 1), ("c", "a", "b"))],
            }
            with open(p, "w") as f:
                json.dump(doc, f)
            with open(p) as f:
                walked = MatrixMeasure(Support(("a", "b", "c")), walked_atoms(json.load(f)))
            assert fio.load_measure(p).atoms.tobytes() == walked.atoms.tobytes()
            weights = [0, 0.0, -0.0, 5e-324, 1.0 / d]
            with open(p, "w") as f:
                json.dump({"dim": d, "support": list("abcde"), "weights": weights}, f)
            expected = np.array([float(w) for w in weights])
            assert fio.load_reference(p).weights.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim", [1.7, 1.0, "1", True, 0, None])
    @pytest.mark.parametrize("kind", ["measure", "reference"])
    def test_dim_must_be_positive_json_integer(self, tmp_path, kind, dim):
        doc = {"dim": dim, "support": ["p1"]}
        doc.update({"measure": {"atoms": [{"point": "p1", "matrix": [[[1, 0]]]}]}, "reference": {"weights": [1.0]}}[kind])
        p = os.path.join(tmp_path, "bad.json")
        with open(p, "w") as f:
            json.dump(doc, f)
        load = fio.load_measure if kind == "measure" else fio.load_reference
        with pytest.raises(MeasureFormatError, match="dim must be a JSON integer of at least 1"):
            load(p)
        doc["dim"] = 1
        with open(p, "w") as f:
            json.dump(doc, f)
        assert load(p).dim == 1

    @pytest.mark.parametrize("support", ["ab", ["a", 2], {"a": 1}])
    @pytest.mark.parametrize("kind", ["measure", "reference"])
    def test_support_must_be_list_of_strings(self, tmp_path, kind, support):
        atoms = [{"point": p, "matrix": [[[0.5, 0]]]} for p in ("a", "b")]
        doc = {"dim": 1, "support": support, **({"atoms": atoms} if kind == "measure" else {"weights": [0.5, 0.5]})}
        p = os.path.join(tmp_path, "bad.json")
        with open(p, "w") as f:
            json.dump(doc, f)
        load = fio.load_measure if kind == "measure" else fio.load_reference
        with pytest.raises(MeasureFormatError, match="support must be a list of strings"):
            load(p)
        doc["support"] = ["a", "b"]
        with open(p, "w") as f:
            json.dump(doc, f)
        assert load(p).support.point_ids == ("a", "b")

    def test_rejects_missing_atom(self, tmp_path):
        doc = {"dim": 1, "support": ["p1", "p2"], "atoms": [{"point": "p1", "matrix": [[[1, 0]]]}]}
        p = os.path.join(tmp_path, "bad.json")
        with open(p, "w") as f:
            json.dump(doc, f)
        with pytest.raises(MeasureFormatError):
            fio.load_measure(p)

    def test_atoms_reordered_by_support(self, tmp_path):
        doc = {
            "dim": 1,
            "support": ["a", "b"],
            "atoms": [
                {"point": "b", "matrix": [[[2, 0]]]},
                {"point": "a", "matrix": [[[1, 0]]]},
            ],
        }
        p = os.path.join(tmp_path, "m.json")
        with open(p, "w") as f:
            json.dump(doc, f)
        g = fio.load_measure(p)
        assert g.atoms[0, 0, 0] == 1.0
        assert g.atoms[1, 0, 0] == 2.0

    def test_reference_round_trip(self, tmp_path):
        lam = uniform_reference(make_support(3), 2)
        p = os.path.join(tmp_path, "lam.json")
        fio.save_reference(p, lam)
        lam2 = fio.load_reference(p)
        assert np.array_equal(lam.weights, lam2.weights)
        assert lam2.dim == 2

    @settings(deadline=None, max_examples=200)
    @given(
        x=st.floats(allow_nan=False, allow_infinity=False),
        y=st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_entry_serialization_bit_exact(self, x, y):
        # 17 significant digits identify a double uniquely, including
        # denormals and extreme exponents.
        text = fio._float_text([x, y])
        assert text == f"{_emit(x)}, {_emit(y)}"
        back = json.loads(f"[{text}]")
        assert back[0] == x and back[1] == y
        assert np.signbit(back[0]) == np.signbit(x)

    def test_measure_path_round_trip(self, rng, tmp_path):
        sup = make_support(2)
        slices = [random_measure(rng, 2, 2, support=sup) for _ in range(3)]
        times = [0.0, 0.5, 1.0]
        p = os.path.join(tmp_path, "path.json")
        fio.save_measure_path(p, times, slices)
        times2, slices2 = fio.load_measure_path(p)
        assert times2 == times
        for a, b in zip(slices, slices2):
            assert np.array_equal(a.atoms, b.atoms)
