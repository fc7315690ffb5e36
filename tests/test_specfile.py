import json
import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import ising_trinity as it
from conftest import random_spec


def write_spec(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def valid_doc():
    return {
        "n": 2,
        "delta": [0.1, -0.2],
        "sigma": [[0.0, math.log(2.0)], [math.log(2.0), 0.0]],
    }


class TestParsing:
    def test_round_trip_is_exact(self, rng, tmp_path):
        spec = random_spec(rng, 4)
        path = tmp_path / "model.json"
        it.save_model_spec(replace(spec, extra_shift=0.5), path)
        loaded = it.load_model_spec(path)
        npt.assert_array_equal(loaded.delta, spec.delta)
        npt.assert_array_equal(loaded.sigma, spec.sigma)
        assert loaded.extra_shift == 0.5

    def test_extra_shift_defaults_to_zero_and_is_omitted(self, rng, tmp_path):
        spec = random_spec(rng, 3)
        path = tmp_path / "model.json"
        it.save_model_spec(spec, path)
        assert "extra_shift" not in json.loads(path.read_text())
        assert it.load_model_spec(path).extra_shift == 0.0

    def test_dict_form(self):
        spec = it.model_spec_from_dict(valid_doc())
        assert spec.n == 2
        assert spec.extra_shift == 0.0
        assert spec.delta[1] == -0.2

    def test_diagonal_warning(self, tmp_path):
        doc = valid_doc()
        doc["sigma"][0][0] = 3.0
        with pytest.warns(UserWarning, match="diagonal"):
            spec = it.model_spec_from_dict(doc)
        assert spec.sigma[0, 0] == 0.0

    def test_diagonal_warning_names_the_callers_line(self, tmp_path):
        doc = valid_doc()
        doc["sigma"][1][1] = -1.0
        path = write_spec(tmp_path, doc)
        for load in (lambda: it.model_spec_from_dict(doc), lambda: it.load_model_spec(path)):
            with pytest.warns(UserWarning, match="diagonal") as caught:
                load()
            assert caught[0].filename == __file__


class TestValidation:
    def test_asymmetric_sigma_names_the_entries(self):
        doc = valid_doc()
        doc["sigma"][0][1] = 0.7
        with pytest.raises(it.SpecValidationError, match=r"sigma\[0\]\[1\]"):
            it.model_spec_from_dict(doc)

    def test_unknown_field(self):
        doc = valid_doc()
        doc["temperature"] = 1.0
        with pytest.raises(it.SpecValidationError, match="temperature"):
            it.model_spec_from_dict(doc)

    def test_missing_fields(self):
        for missing in ("n", "delta", "sigma"):
            doc = valid_doc()
            del doc[missing]
            with pytest.raises(it.SpecValidationError, match=missing):
                it.model_spec_from_dict(doc)
        # Every field's presence is checked before any field is read.
        with pytest.raises(it.SpecValidationError, match="missing required field 'sigma'"):
            it.model_spec_from_dict({"n": "x", "delta": "y"})

    def test_bad_sizes_and_types(self):
        doc = valid_doc()
        doc["delta"] = [0.1]
        with pytest.raises(it.SpecValidationError, match="delta"):
            it.model_spec_from_dict(doc)
        doc = valid_doc()
        doc["sigma"][1] = [0.0]
        with pytest.raises(it.SpecValidationError, match=r"sigma\[1\]"):
            it.model_spec_from_dict(doc)
        doc = valid_doc()
        doc["delta"][0] = "strong"
        with pytest.raises(it.SpecValidationError, match=r"delta\[0\]"):
            it.model_spec_from_dict(doc)
        doc = valid_doc()
        doc["n"] = 2.0
        with pytest.raises(it.SpecValidationError, match="positive integer"):
            it.model_spec_from_dict(doc)

    def test_wrong_length_of_delta_or_a_sigma_row(self):
        doc = valid_doc()
        doc["delta"] = doc["delta"] + [0.0]
        with pytest.raises(it.SpecValidationError) as err:
            it.model_spec_from_dict(doc)
        assert str(err.value) == "delta must be a list of 2 numbers"
        doc = valid_doc()
        doc["sigma"][1] = {"a": 1}
        with pytest.raises(it.SpecValidationError) as err:
            it.model_spec_from_dict(doc)
        assert str(err.value) == "sigma[1] must be a list of 2 numbers"

    def test_wrong_number_of_sigma_rows(self):
        doc = valid_doc()
        doc["sigma"] = doc["sigma"][:1]
        with pytest.raises(it.SpecValidationError) as err:
            it.model_spec_from_dict(doc)
        assert str(err.value) == "'sigma' must be a list of 2 rows"

    def test_non_finite_entries(self):
        doc = valid_doc()
        doc["delta"][0] = math.inf
        with pytest.raises(it.SpecValidationError, match="finite"):
            it.model_spec_from_dict(doc)

    def test_negative_extra_shift(self):
        doc = valid_doc()
        doc["extra_shift"] = -1.0
        with pytest.raises(it.SpecValidationError, match="non-negative"):
            it.model_spec_from_dict(doc)

    @pytest.mark.parametrize(
        "shift, message",
        [
            ("2.0", "extra_shift must be a number, got '2.0'"),
            (None, "extra_shift must be a number, got None"),
            (math.nan, "extra_shift must be finite, got nan"),
        ],
    )
    def test_extra_shift_must_be_a_finite_number(self, shift, message):
        doc = valid_doc()
        doc["extra_shift"] = shift
        with pytest.raises(it.SpecValidationError) as err:
            it.model_spec_from_dict(doc)
        assert str(err.value) == message

    def test_shift_is_checked_before_symmetry(self, tmp_path):
        doc = valid_doc()
        doc["sigma"][0][1] = 0.7
        doc["extra_shift"] = -0.5
        with pytest.raises(it.SpecValidationError) as err:
            it.load_model_spec(write_spec(tmp_path, doc))
        assert str(err.value) == "extra_shift must be non-negative, got -0.5"

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(it.SpecValidationError, match="not valid JSON"):
            it.load_model_spec(path)

    def test_non_object_document(self):
        with pytest.raises(it.SpecValidationError, match="object"):
            it.model_spec_from_dict([1, 2, 3])


class TestGraphViews:
    def test_network_edges(self):
        spec = it.model_spec_from_dict(
            {"n": 3, "delta": [0, 0, 0], "sigma": [[0, 0.7, 0], [0.7, 0, 0], [0, 0, 0]]}
        )
        dot = it.graph_dot(spec, "network")
        assert dot.startswith("graph network {")
        assert 'x1 -- x2 [label="0.7"];' in dot
        assert "x3;" in dot
        assert "x1 -- x3" not in dot and "x2 -- x3" not in dot

    def test_common_cause_parents_match_rank(self, rng):
        from conftest import low_rank_spec

        spec = low_rank_spec(rng, 5, 2)
        dot = it.graph_dot(spec, "common-cause")
        assert dot.startswith("digraph common_cause {")
        assert "theta1 [shape=circle];" in dot
        assert "theta2 [shape=circle];" in dot
        assert "theta3" not in dot
        assert "theta1 -> x4;" in dot

    def test_collider_effects_match_rank(self, rng):
        from conftest import low_rank_spec

        spec = low_rank_spec(rng, 4, 1)
        dot = it.graph_dot(spec, "collider")
        assert dot.startswith("digraph collider {")
        assert "e1 [shape=box];" in dot
        assert "e2" not in dot
        assert "x3 -> e1;" in dot

    def test_digraph_views_in_full(self, rng):
        # Latent causes come before the items and point at them; effects come
        # after the items, which point at them.
        from conftest import low_rank_spec

        spec = low_rank_spec(rng, 3, 2)
        assert it.graph_dot(spec, "common-cause") == (
            "digraph common_cause {\n"
            "  theta1 [shape=circle];\n  theta2 [shape=circle];\n  x1;\n  x2;\n  x3;\n"
            "  theta1 -> x1;\n  theta1 -> x2;\n  theta1 -> x3;\n"
            "  theta2 -> x1;\n  theta2 -> x2;\n  theta2 -> x3;\n"
            "}\n"
        )
        assert it.graph_dot(spec, "collider") == (
            "digraph collider {\n"
            "  x1;\n  x2;\n  x3;\n  e1 [shape=box];\n  e2 [shape=box];\n"
            "  x1 -> e1;\n  x2 -> e1;\n  x3 -> e1;\n"
            "  x1 -> e2;\n  x2 -> e2;\n  x3 -> e2;\n"
            "}\n"
        )

    def test_views_read_the_specs_shift(self):
        doc = valid_doc()
        assert "theta2" not in it.graph_dot(it.model_spec_from_dict(doc), "common-cause")
        doc["extra_shift"] = 1.0
        spec = it.model_spec_from_dict(doc)
        assert "theta2 -> x2;" in it.graph_dot(spec, "common-cause")
        assert "e2 [shape=box];" in it.graph_dot(spec, "collider")

    def test_unknown_view(self, rng):
        with pytest.raises(ValueError, match="unknown view"):
            it.graph_dot(random_spec(rng, 2), "heatmap")
