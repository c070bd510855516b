import hashlib
import json
import math

import pytest

from sepcurv import SpecFileError, load_spec, spec_digest


def write(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def family_doc(**extra):
    doc = {
        "format_version": 1,
        "family": {"kind": "hypersphere", "n": 4, "radius": 2.0},
    }
    doc.update(extra)
    return doc


def functions_doc(**extra):
    doc = {
        "format_version": 1,
        "functions": [
            {"expr": "x^2"},
            {"expr": "exp(x) - 1"},
            {"expr": "x^2 + x"},
            {"expr": "2*x", "bracket": [-40.0, 40.0]},
        ],
    }
    doc.update(extra)
    return doc


# ------------------------------------------------------------ happy paths


def test_family_spec_with_defaults(tmp_path):
    path = write(tmp_path, family_doc())
    spec = load_spec(path)
    assert spec.surface.n == 4
    assert spec.surface.height == 4
    assert spec.bracket == (0.2, 2.02)
    half = 2.0 / (2.0 * math.sqrt(3.0))
    assert spec.ranges == ((-half, half),) * 3
    assert (spec.count, spec.seed, spec.oblique) == (100, 0, 0)
    assert spec.constancy_tol is None
    assert spec.grid is None
    raw = (tmp_path / "spec.json").read_bytes()
    assert spec.digest == "sha256:" + hashlib.sha256(raw).hexdigest()


def test_family_spec_with_overrides(tmp_path):
    doc = family_doc(
        bracket=[0.5, 2.5],
        sampling={
            "count": 7,
            "seed": 12,
            "oblique_planes": 3,
            "ranges": [[-0.25, 0.25], [-0.25, 0.25], [-0.25, 0.25]],
        },
        tolerances={"constancy": 1e-6},
        grid=[8, 9],
    )
    spec = load_spec(write(tmp_path, doc))
    assert spec.bracket == (0.5, 2.5)
    assert spec.ranges == ((-0.25, 0.25),) * 3
    assert (spec.count, spec.seed, spec.oblique) == (7, 12, 3)
    assert spec.constancy_tol == 1e-6
    assert spec.grid == (8, 9)


def test_functions_spec(tmp_path):
    spec = load_spec(write(tmp_path, functions_doc()))
    assert spec.surface.n == 4
    assert spec.surface.height == 4
    assert spec.bracket == (-40.0, 40.0)
    assert spec.ranges is None
    assert spec.surface.funcs[1].source() == "exp(x) - 1.0"


def test_functions_spec_with_domains_and_height(tmp_path):
    doc = {
        "format_version": 1,
        "n": 3,
        "height_index": 1,
        "functions": [
            {"expr": "2*log(x)", "domain": [0, None], "bracket": [0.1, 9.0]},
            {"expr": "-log(x)", "domain": [0, None]},
            {"expr": "-log(x + 1)", "domain": [-1, None]},
        ],
        "sampling": {"ranges": [[0.5, 2.0], [0.0, 1.0]], "count": 5},
    }
    spec = load_spec(write(tmp_path, doc))
    assert spec.surface.height == 1
    assert spec.surface.funcs[0].domain == (0.0, math.inf)
    assert spec.surface.funcs[2].domain == (-1.0, math.inf)
    assert spec.bracket == (0.1, 9.0)
    assert spec.ranges == ((0.5, 2.0), (0.0, 1.0))
    assert spec.count == 5


def test_digest_tracks_bytes(tmp_path):
    a = load_spec(write(tmp_path, family_doc(), "a.json"))
    b = load_spec(write(tmp_path, family_doc(), "b.json"))
    assert a.digest == b.digest
    # any byte change (here: added whitespace) changes the digest
    p = tmp_path / "c.json"
    p.write_text(json.dumps(family_doc(), indent=2), encoding="utf-8")
    c = load_spec(str(p))
    assert c.digest != a.digest
    assert spec_digest(b"") == "sha256:" + hashlib.sha256(b"").hexdigest()


# -------------------------------------------------------------- file errors


def test_missing_file():
    with pytest.raises(SpecFileError, match="cannot read"):
        load_spec("/nonexistent/spec.json")


def test_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(SpecFileError, match="not valid JSON"):
        load_spec(str(p))


def test_top_level_must_be_object(tmp_path):
    p = tmp_path / "arr.json"
    p.write_text("[1, 2, 3]", encoding="utf-8")
    with pytest.raises(SpecFileError, match="object"):
        load_spec(str(p))


@pytest.mark.parametrize("version", [None, 2, "1"])
def test_format_version_enforced(tmp_path, version):
    doc = family_doc()
    if version is None:
        del doc["format_version"]
    else:
        doc["format_version"] = version
    with pytest.raises(SpecFileError, match="format_version"):
        load_spec(write(tmp_path, doc))


def test_exactly_one_surface_form(tmp_path):
    doc = family_doc()
    doc["functions"] = functions_doc()["functions"]
    with pytest.raises(SpecFileError, match="exactly one"):
        load_spec(write(tmp_path, doc))
    with pytest.raises(SpecFileError, match="exactly one"):
        load_spec(write(tmp_path, {"format_version": 1}))


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(SpecFileError, match="unknown top-level keys.*extra"):
        load_spec(write(tmp_path, family_doc(extra=1)))
    with pytest.raises(SpecFileError, match="unknown sampling keys"):
        load_spec(write(tmp_path, family_doc(sampling={"points": 5})))
    with pytest.raises(SpecFileError, match="unknown tolerance keys"):
        load_spec(write(tmp_path, family_doc(tolerances={"flatness": 1e-9})))


@pytest.mark.parametrize(
    "sampling, message",
    [
        ({"count": 0}, "count"),
        ({"count": -5}, "count"),
        ({"count": 2.0}, "count"),
        ({"seed": -1}, "seed"),
        ({"seed": "abc"}, "seed"),
        ({"oblique_planes": -1}, "oblique_planes"),
        ({"ranges": "wide"}, "ranges"),
        ({"ranges": [[1.0, 1.0], [0.0, 1.0], [0.0, 1.0]]}, "lo < hi"),
        ({"count": 1}, "count"),
    ],
)
def test_sampling_validation(tmp_path, sampling, message):
    with pytest.raises(SpecFileError, match=message):
        load_spec(write(tmp_path, family_doc(sampling=sampling)))


def test_ranges_length_checked(tmp_path):
    doc = family_doc(sampling={"ranges": [[-0.5, 0.5], [-0.5, 0.5]]})
    with pytest.raises(SpecFileError, match="needs 3 entries"):
        load_spec(write(tmp_path, doc))


def test_constancy_tolerance_positive(tmp_path):
    with pytest.raises(SpecFileError, match="positive"):
        load_spec(write(tmp_path, family_doc(tolerances={"constancy": 0.0})))
    with pytest.raises(SpecFileError, match="positive"):
        load_spec(write(tmp_path, family_doc(tolerances={"constancy": -1e-9})))


@pytest.mark.parametrize("grid", [[1, 8], [8], [8, 8, 8], ["8", 8], [8, 2.0]])
def test_grid_validation(tmp_path, grid):
    with pytest.raises(SpecFileError, match="grid"):
        load_spec(write(tmp_path, family_doc(grid=grid)))


# ----------------------------------------------------------- family errors


def test_family_form_rejects_functions_keys(tmp_path):
    with pytest.raises(SpecFileError, match="height"):
        load_spec(write(tmp_path, family_doc(height_index=2)))
    with pytest.raises(SpecFileError, match="family object"):
        load_spec(write(tmp_path, family_doc(n=4)))


def test_family_must_be_object(tmp_path):
    with pytest.raises(SpecFileError, match="family"):
        load_spec(write(tmp_path, {"format_version": 1, "family": "hypersphere"}))


def test_family_parameter_errors_surface(tmp_path):
    doc = {"format_version": 1, "family": {"kind": "hypersphere", "n": 4}}
    with pytest.raises(SpecFileError, match="radius"):
        load_spec(write(tmp_path, doc))
    doc = {"format_version": 1, "family": {"kind": "torus", "n": 4, "radius": 1.0}}
    with pytest.raises(SpecFileError, match="unknown family kind"):
        load_spec(write(tmp_path, doc))


# -------------------------------------------------------- functions errors


def test_functions_form_rejects_top_level_bracket(tmp_path):
    doc = functions_doc(bracket=[-1.0, 1.0])
    with pytest.raises(SpecFileError, match="height entry"):
        load_spec(write(tmp_path, doc))


def test_functions_need_three_entries(tmp_path):
    doc = {
        "format_version": 1,
        "functions": [{"expr": "x"}, {"expr": "x", "bracket": [-1.0, 1.0]}],
    }
    with pytest.raises(SpecFileError, match="at least 3"):
        load_spec(write(tmp_path, doc))


def test_functions_n_consistency(tmp_path):
    with pytest.raises(SpecFileError, match="inconsistent"):
        load_spec(write(tmp_path, functions_doc(n=5)))
    spec = load_spec(write(tmp_path, functions_doc(n=4)))
    assert spec.surface.n == 4


@pytest.mark.parametrize("height", [0, 5, "last", 2.0])
def test_functions_height_index_validation(tmp_path, height):
    with pytest.raises(SpecFileError, match="height_index"):
        load_spec(write(tmp_path, functions_doc(height_index=height)))


def test_function_entry_validation(tmp_path):
    doc = functions_doc()
    doc["functions"][1] = "exp(x)"
    with pytest.raises(SpecFileError, match=r"functions\[1\] must be an object"):
        load_spec(write(tmp_path, doc))

    doc = functions_doc()
    doc["functions"][2] = {"expr": "x", "slope": 1}
    with pytest.raises(SpecFileError, match=r"functions\[2\]: unknown keys"):
        load_spec(write(tmp_path, doc))

    doc = functions_doc()
    del doc["functions"][0]["expr"]
    with pytest.raises(SpecFileError, match=r"functions\[0\] needs a string 'expr'"):
        load_spec(write(tmp_path, doc))


def test_parse_errors_carry_entry_context(tmp_path):
    doc = functions_doc()
    doc["functions"][1]["expr"] = "tan(x)"
    with pytest.raises(SpecFileError, match=r"functions\[1\].*unknown identifier 'tan'"):
        load_spec(write(tmp_path, doc))


def test_bracket_only_on_height_entry(tmp_path):
    doc = functions_doc()
    doc["functions"][0]["bracket"] = [-1.0, 1.0]
    with pytest.raises(SpecFileError, match="only the height entry"):
        load_spec(write(tmp_path, doc))


def test_height_bracket_required(tmp_path):
    doc = functions_doc()
    del doc["functions"][3]["bracket"]
    with pytest.raises(SpecFileError, match=r"functions\[3\] needs a bracket"):
        load_spec(write(tmp_path, doc))


def test_bad_domain_rejected(tmp_path):
    doc = functions_doc()
    doc["functions"][0]["domain"] = [2.0, 1.0]
    with pytest.raises(SpecFileError, match="lo < hi"):
        load_spec(write(tmp_path, doc))
    doc["functions"][0]["domain"] = [0.0]
    with pytest.raises(SpecFileError, match="domain"):
        load_spec(write(tmp_path, doc))


# -------------------------------------------------------- shipped examples


@pytest.mark.parametrize(
    "name",
    [
        "hypersphere_r2_n4.json",
        "cobb_douglas_n5.json",
        "raw_functions_n4.json",
        "sphere3_mesh.json",
    ],
)
def test_shipped_spec_files_load(name):
    import pathlib

    path = pathlib.Path(__file__).resolve().parent.parent / "specs" / name
    spec = load_spec(str(path))
    assert spec.surface.n >= 3
