import json
import math
import os
import tracemalloc

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
    ZeroMassError,
)
from frgeo.fisher_rao import MeasurePath, fisher_rao_geodesic
from frgeo.measures import (
    MatrixMeasure,
    ReferenceMeasure,
    Support,
    check_reference_support,
    check_same_support,
    lebesgue_split,
    make_support,
    mass,
    normalize_to_sphere,
    reference_identity,
    scale_measure,
    tv_distance,
    uniform_reference,
)
from frgeo.testing import random_finite_entropy_measure, random_measure, random_probability_measure


def single_atom(atom, label="p1"):
    return MatrixMeasure(Support((label,)), np.asarray(atom, dtype=complex)[None])


def zeros(sup, d):
    return MatrixMeasure(sup, np.zeros((sup.n, d, d)))


def tv_norm(g):
    """The TV norm of ``g``: its TV distance from the zero measure."""
    return tv_distance(g, zeros(g.support, g.dim))


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


class TestShapeChecks:
    @pytest.mark.parametrize("shape", [(2, 2), (2, 2, 3)], ids=["not-a-stack", "not-square"])
    def test_atoms_must_be_n_d_d(self, shape):
        with pytest.raises(FRGeoError, match=r"atoms must have shape \(n, d, d\), got"):
            MatrixMeasure(make_support(2), np.zeros(shape, dtype=complex))

    def test_one_atom_per_point(self):
        with pytest.raises(SupportMismatchError, match="^3 atoms for 2 support points$"):
            MatrixMeasure(make_support(2), np.zeros((3, 2, 2), dtype=complex))

    def test_one_weight_per_point(self):
        with pytest.raises(FRGeoError, match=r"weights must have shape \(2,\), got \(4,\)"):
            ReferenceMeasure(make_support(2), 1, np.full(4, 0.25))

    def test_pairs_need_the_same_dim(self):
        sup = make_support(2)
        with pytest.raises(SupportMismatchError, match="^measures have different dims 1 and 2$"):
            check_same_support(zeros(sup, 1), zeros(sup, 2))

    def test_reference_needs_the_same_support_and_dim(self):
        g = zeros(make_support(2), 2)
        with pytest.raises(SupportMismatchError, match="^measure and reference live on different supports$"):
            check_reference_support(g, uniform_reference(make_support(3), 2))
        with pytest.raises(SupportMismatchError, match="^measure dim 2 != reference dim 1$"):
            check_reference_support(g, uniform_reference(make_support(2), 1))


class TestTvNorm:
    def test_zero_measure(self):
        assert tv_norm(zeros(make_support(3), 2)) == 0.0

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
        assert mass(zeros(make_support(2), 2)) == 0.0

    def test_path_gives_the_slice_values_bit_for_bit(self, rng):
        # A path's mass and TV distance are those of its slices, exactly.
        for n, d in ((1, 1), (3, 2), (9, 3)):
            sup = make_support(n)
            times = np.linspace(0.0, 1.0, 5)
            a, b = (
                MeasurePath(times, sup, np.stack([random_measure(rng, n, d, support=sup).atoms for _ in times]))
                for _ in "ab"
            )
            masses, tvs = mass(a), tv_distance(a, b)
            assert isinstance(mass(a.slices[0]), float) and isinstance(tv_distance(a.slices[0], b.slices[0]), float)
            assert masses.tolist() == [mass(g) for g in a.slices]
            assert tvs.tolist() == [tv_distance(g, h) for g, h in zip(a.slices, b.slices)]


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
            normalize_to_sphere(zeros(make_support(1), 2))

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
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"time": 0.0}', "path document must be a JSON array"),
            ("[3]", "each path entry must carry 'time' and 'measure'"),
            ('[{"time": 0.0}]', "each path entry must carry 'time' and 'measure'"),
            ('[{"measure": {}}]', "each path entry must carry 'time' and 'measure'"),
        ],
        ids=["not-an-array", "entry-not-an-object", "no-measure", "no-time"],
    )
    def test_path_loader_rejects_malformed_documents(self, tmp_path, text, message):
        p = tmp_path / "path.json"
        p.write_text(text)
        with pytest.raises(MeasureFormatError, match=f"^{message}$"):
            fio.load_measure_path(str(p))

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
            # Path times must increase, so these are fixed rather than drawn.
            for times in ([0.0, 0.5, 1.0], [-1e308, -0.0, 5e-324], [-2.5e-310, 99999999999999984.0, 1e308]):
                fio.save_measure_path(p, times, [g] * 3)
                with open(p) as f:
                    assert f.read() == _emit(path_to_doc(times, [g] * 3)) + "\n"
            lam = SimpleNamespace(support=make_support(len(values)), dim=d, weights=np.array(values))
            fio.save_reference(p, lam)
            with open(p) as f:
                assert f.read() == _emit(reference_to_doc(lam)) + "\n"

    def test_path_writer_matches_recursive_emit_bytes(self, rng, tmp_path):
        # Slices with different patterns of integral values, on a support
        # whose ids hold %, quotes and non-ASCII characters: each slice's
        # document comes from the template of its own pattern. A slice on a
        # second support makes a path the loader refuses, so the writer
        # refuses it too, before the file opens.
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
        times = [0.0, 1e-300, 0.2, 0.5, 1.0, 3.0]
        p = os.path.join(tmp_path, "path.json")
        with pytest.raises(MeasureFormatError, match="^path entry 3 lives on another support than entry 0$"):
            fio.save_measure_path(p, times, slices)
        assert not os.path.exists(p)
        # The slices on the odd support alone make a path, which loads bit for bit.
        del times[3], slices[3]
        fio.save_measure_path(p, times, slices)
        with open(p, encoding="utf-8") as f:
            assert f.read() == _emit(path_to_doc(times, slices)) + "\n"
        times2, slices2 = fio.load_measure_path(p)
        assert times2 == times
        assert all(g.support == odd for g in slices2)
        for a, b in zip(slices, slices2, strict=True):
            assert a.atoms.tobytes() == b.atoms.tobytes()

    @pytest.mark.parametrize(
        "support, dim, t, message",
        [
            (make_support(3), 2, 0.5, "path entry 2 lives on another support than entry 0"),
            (Support(("p1", "q2")), 2, 0.5, "path entry 2 lives on another support than entry 0"),
            (make_support(2), 3, 0.5, "path entry 2 has dim 3, entry 0 has dim 2"),
            (make_support(2), 2, 0.2, "path entry 2 has time 0.2, not after the time 0.2 of entry 1"),
            (make_support(2), 2, 0.1, "path entry 2 has time 0.1, not after the time 0.2 of entry 1"),
        ],
        ids=["support-size", "support-labels", "dim", "time-repeated", "time-decreasing"],
    )
    def test_path_loader_rejects_inconsistent_entries(self, rng, tmp_path, support, dim, t, message):
        # The bad entry follows two good ones, and the entry after it breaks
        # the same rule; the error names the first bad one. The writer
        # refuses the same path with the same message before the file opens.
        good = random_measure(rng, 2, 2)
        bad = random_measure(rng, support.n, dim, support=support)
        times, slices = [0.0, 0.2, t, 0.0], [good, good, bad, bad]
        p = os.path.join(tmp_path, "path.json")
        text = _emit(path_to_doc(times, slices)) + "\n"
        with open(p, "w", encoding="utf-8") as f:
            f.write(text)
        with pytest.raises(MeasureFormatError, match=f"^{message}$"):
            fio.load_measure_path(p)
        with pytest.raises(MeasureFormatError, match=f"^{message}$"):
            fio.save_measure_path(p, times, slices)
        with open(p, encoding="utf-8") as f:
            assert f.read() == text

    @pytest.mark.parametrize(
        "time, message",
        [
            (math.nan, "time of path entry 1 holds non-finite value nan"),
            (math.inf, "time of path entry 1 holds non-finite value inf"),
            ("0.5", "time of path entry 1 must hold only JSON numbers"),
            ([0.5], r"time of path entry 1 must have shape \(\), got \(1,\)"),
        ],
        ids=["nan", "inf", "string", "array"],
    )
    def test_path_loader_rejects_bad_times(self, rng, tmp_path, time, message):
        g = random_measure(rng, 2, 2)
        p = os.path.join(tmp_path, "path.json")
        fio.save_measure_path(p, [0.0, 0.5], [g, g])
        with open(p, encoding="utf-8") as f:
            doc = json.load(f)
        doc[1]["time"] = time
        with open(p, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        with pytest.raises(MeasureFormatError, match=f"^{message}$"):
            fio.load_measure_path(p)

    def test_path_writer_rejects_non_finite_slice(self, rng, tmp_path):
        g = random_measure(rng, 3, 2)
        bad = g.with_atoms(g.atoms)
        bad.atoms[2, 1, 0] = complex(np.nan, 0.5)
        p = os.path.join(tmp_path, "path.json")
        with open(p, "w") as f:
            f.write("an earlier file\n")
        for times, slices in (([0.0, 0.5, 1.0], [g, bad, g]), ([0.0, math.inf], [g, g])):
            with pytest.raises(MeasureFormatError, match="non-finite value") as err:
                fio.save_measure_path(p, times, slices)
            with pytest.raises(MeasureFormatError) as reference:
                _emit(path_to_doc(times, slices))
            assert str(err.value) == str(reference.value)
        with pytest.raises(ValueError):
            fio.save_measure_path(p, [0.0, 1.0], [g, g, g])
        # Every row is checked before the file is opened.
        with open(p) as f:
            assert f.read() == "an earlier file\n"

    def test_path_io_streams_one_slice_at_a_time(self, tmp_path):
        # The seeded n = 64, d = 4 Fisher-Rao path of 17 slices (an 841 KB
        # file). Writing the whole document at once, or parsing its whole tree
        # before converting any entry, peaks above 3 and 4.5 file sizes.
        rng = np.random.default_rng(5)
        g0, g1 = (random_finite_entropy_measure(rng, 64, 4) for _ in range(2))
        path = fisher_rao_geodesic(g0, g1, np.linspace(0.0, 1.0, 17))
        times, slices = path.times, path.slices
        p = os.path.join(tmp_path, "path.json")
        fio.save_measure_path(p, times, slices)
        size = os.path.getsize(p)

        def peak(call):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = call()
            return tracemalloc.get_traced_memory()[1] - base, out

        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            save_peak, _ = peak(lambda: fio.save_measure_path(p, times, slices))
            load_peak, (times2, slices2) = peak(lambda: fio.load_measure_path(p))
        finally:
            if started:
                tracemalloc.stop()
        assert save_peak <= 1.0 * size, (save_peak, size)
        assert load_peak <= 2.5 * size, (load_peak, size)
        assert times2 == times.tolist()
        assert all(a.atoms.tobytes() == b.atoms.tobytes() for a, b in zip(slices, slices2, strict=True))

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

    def test_csv_writes_non_finite_and_signed_zero_floats(self, tmp_path):
        # ".17g" spells the infinities and NaN as Python does and keeps the sign of zero.
        p = os.path.join(tmp_path, "t.csv")
        fio.write_csv(p, ["x"], [(v,) for v in (np.inf, -np.inf, np.nan, 2.0, -0.0, np.float64(-np.inf))])
        with open(p, encoding="utf-8") as f:
            assert f.read() == "x\ninf\n-inf\nnan\n2\n-0\n-inf\n"
