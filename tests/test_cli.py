"""Command-line interface: verbs, output format, and exit codes."""

from __future__ import annotations

import json
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import pytest

from branetile import matchings, stability
from branetile.cli import main

from conftest import QUIVER_FIXTURES, fixture_path, fixture_text, orbifold_text

SPP = str(fixture_path("spp"))

SPP_MATCHINGS_OUTPUT = f"""\
# matchings {SPP}
# id  point   arrows
  m1  (1,0)   11,23
  m2  (0,1)   11,32
  m3  (-1,1)  12,13
  m4  (0,0)   12,31
  m5  (-2,2)  13,21
  m6  (-1,1)  21,31
# total 6
"""

SPP_DIAGRAM_BODY = """\
# point   count  matchings  extremal
  (-2,2)  1      m5         yes
  (-1,1)  2      m3,m6      no
  (0,0)   1      m4         yes
  (0,1)   1      m2         yes
  (1,0)   1      m1         yes
# hull (-2,2) (0,0) (1,0) (0,1)
# canonical (0,0) (0,1) (0,1) (0,2) (1,0) (1,1)
"""


def run(argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_validate_accepts_bundled_documents(name, capsys):
    code, out, err = run(["validate", str(fixture_path(name))], capsys)
    assert code == 0
    assert err == ""
    assert "  nondegenerate         ok" in out
    assert "FAIL" not in out


def test_matchings_output_is_frozen(capsys):
    code, out, err = run(["matchings", SPP], capsys)
    assert code == 0
    assert err == ""
    assert out == SPP_MATCHINGS_OUTPUT


def test_diagram_output_is_frozen(capsys):
    code, out, _ = run(["diagram", SPP], capsys)
    assert code == 0
    assert out == f"# diagram {SPP}\n" + SPP_DIAGRAM_BODY


def test_diagram_with_theta_appends_the_triangulation(capsys):
    code, out, _ = run(["diagram", SPP, "--theta=-2,1,1"], capsys)
    assert code == 0
    assert out.startswith(f"# diagram {SPP}\n" + SPP_DIAGRAM_BODY)
    assert "# triangulation for theta=(-2,1,1)" in out
    assert out.count("\n  ") == 5 + 3  # five point rows, three triangles


def test_chambers_lists_representatives_and_fan_classes(capsys):
    code, out, _ = run(["chambers", SPP], capsys)
    assert code == 0
    assert "# 6 chambers" in out
    assert "# equivalent fans: 1,6 | 2,3 | 4,5" in out
    assert "  1      (-2,1,1)        m1,m2,m4,m5,m6" in out


def test_fan_prints_rays_cones_and_smoothness(capsys):
    code, out, _ = run(["fan", SPP, "--theta=-2,1,1"], capsys)
    assert code == 0
    assert out.startswith(f"# fan {SPP} theta=(-2,1,1)\n")
    assert "  m4   (0,0,1)" in out
    assert "  16    3    m2,m5,m6" in out
    assert out.rstrip().endswith("# smooth true")


def test_tilting_prints_divisors_and_the_class_group(capsys):
    code, out, _ = run(["tilting", SPP, "--theta=-2,1,1"], capsys)
    assert code == 0
    assert "# divisor coordinates m1,m2,m4,m5,m6" in out
    assert "  2       12    (0,0,1,0,0)  (-1,-1)" in out
    assert "# picard rank 2 torsion none" in out


def test_tilting_honors_an_explicit_base(capsys):
    code, out, _ = run(["tilting", SPP, "--theta=-2,1,1", "--base", "2"],
                       capsys)
    assert code == 0
    assert "base=2" in out
    assert "  2       e     (0,0,0,0,0)  (0,0)" in out


def test_sections_compares_lattice_and_path_counts(capsys):
    code, out, _ = run(["sections", SPP, "--theta=-2,1,1",
                        "--max-height", "2"], capsys)
    assert code == 0
    assert "# all heights agree: true" in out
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(rows) == 3 * 3 * 3  # ordered vertex pairs x heights 0..2
    assert all(l.split()[-1] == "yes" for l in rows)


def test_sections_default_height_reaches_four(capsys):
    code, out, _ = run(["sections", str(fixture_path("conifold")),
                        "--theta=1,-1"], capsys)
    assert code == 0
    assert "max-height=4" in out
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(rows) == 2 * 2 * 5


def test_dump_lattice_reports_the_tower(capsys):
    code, out, _ = run(["dump-lattice", SPP], capsys)
    assert code == 0
    assert "# weight-lattice rank 5" in out
    assert "# degree-lattice rank 2" in out
    assert "# kernel rank 3" in out
    assert "# face-cycle weight (0,1,1,1,1)" in out


def test_output_is_byte_stable_across_runs(capsys):
    outs = []
    for _ in range(2):
        for argv in (["matchings", SPP], ["chambers", SPP],
                     ["fan", SPP, "--theta=-2,1,1"]):
            _, out, _ = run(argv, capsys)
            outs.append(out)
    assert outs[:3] == outs[3:]


def test_vertex_order_reorders_theta_entries(capsys):
    _, direct, _ = run(["fan", SPP, "--theta=-2,1,1"], capsys)
    _, permuted, _ = run(["fan", SPP, "--theta=1,1,-2",
                          "--vertex-order", "2,3,1"], capsys)
    assert permuted == direct


# ---------------------------------------------------------------------------
# svg side outputs
# ---------------------------------------------------------------------------

def test_diagram_svg_is_wellformed(tmp_path, capsys):
    target = tmp_path / "diagram.svg"
    code, _, _ = run(["diagram", SPP, "--svg", str(target)], capsys)
    assert code == 0
    root = ET.parse(target).getroot()
    assert root.tag.endswith("svg")


def test_diagram_svg_escapes_its_title(tmp_path, capsys):
    # the title is the input's file name, which may hold markup
    source = tmp_path / "a&b<c>.json"
    source.write_text(fixture_text("spp"), encoding="utf-8")
    target = tmp_path / "diagram.svg"
    code, _, _ = run(["diagram", str(source), "--svg", str(target)], capsys)
    assert code == 0
    title = ET.parse(target).getroot().find("{http://www.w3.org/2000/svg}text")
    assert title.text == "a&b<c>.json"


def test_tilting_svg_is_wellformed(tmp_path, capsys):
    target = tmp_path / "fan.svg"
    code, _, _ = run(["tilting", SPP, "--theta=-2,1,1", "--svg",
                      str(target)], capsys)
    assert code == 0
    root = ET.parse(target).getroot()
    assert root.tag.endswith("svg")


# ---------------------------------------------------------------------------
# failure exit codes
# ---------------------------------------------------------------------------

def test_the_exit_code_help_names_the_vertex_limits(capsys):
    code, out, _ = run(["--help"], capsys)
    assert code == 0
    assert (f"more than {stability._MAX_CHAMBER_VERTICES} vertices for "
            f"chambers or {stability._MAX_SUBSET_SUM_VERTICES} for a "
            f"parameter's subset sums") in " ".join(out.split())


def test_the_exit_code_help_names_the_partial_matching_limit(capsys):
    code, out, _ = run(["--help"], capsys)
    assert code == 0
    assert (f"more than {matchings._MAX_PARTIAL_MATCHINGS} partial matchings "
            f"held by the matching search") in " ".join(out.split())


def test_too_many_partial_matchings_exit_four(capsys, monkeypatch):
    # A document past the real limit takes about 200 MB before it is
    # refused, so the limit is lowered below spp's six matchings.
    monkeypatch.setattr(matchings, "_MAX_PARTIAL_MATCHINGS", 5)
    code, out, err = run(["matchings", SPP], capsys)
    assert code == 4
    assert out == ""
    assert err == ("error[matchings:degenerate] the matching search holds "
                   "at most 5 partial matchings; this tiling needs more\n")


def test_missing_input_exits_six(capsys):
    code, out, err = run(["validate", "no-such-file.json"], capsys)
    assert code == 6
    assert err.startswith("error[validate:io]")
    assert out == ""


def test_unreadable_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _, err = run(["validate", str(bad)], capsys)
    assert code == 2
    assert err.startswith("error[validate:format]")


@pytest.mark.parametrize("verb", ["validate", "matchings"])
def test_input_that_is_not_utf8_is_a_format_error(verb, tmp_path, capsys):
    bad = tmp_path / "binary.json"
    bad.write_bytes(b'{"vertices": ["\xff\xfe"]}\n')
    code, out, err = run([verb, str(bad)], capsys)
    assert code == 2
    assert err.startswith(f"error[{verb}:format] input is not UTF-8 text: ")
    assert "can't decode byte 0xff" in err
    assert out == ""


def test_structural_violations_exit_three(tmp_path, capsys):
    doc = json.loads(fixture_text("spp"))
    doc["faces"][0]["cycle"] = doc["faces"][0]["cycle"][:-1]
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(["validate", str(bad)], capsys)
    assert code == 3
    assert err.startswith("error[validate:invalid]")
    assert "FAIL" in out  # the report still goes to stdout


def test_invalid_documents_stop_other_verbs(tmp_path, capsys):
    doc = json.loads(fixture_text("spp"))
    doc["faces"][0]["cycle"] = doc["faces"][0]["cycle"][:-1]
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(["matchings", str(bad)], capsys)
    assert code == 3
    assert err.startswith("error[matchings:invalid]")


EMPTY_QUIVER = {"vertices": [], "arrows": [], "faces": []}


def test_the_empty_quiver_is_not_connected(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(EMPTY_QUIVER))
    code, out, err = run(["validate", str(empty)], capsys)
    assert code == 3
    assert err == "error[validate:invalid] 1 structural violations\n"
    assert ("  connected             FAIL: underlying graph is not "
            "connected\n") in out
    assert "  nondegenerate         skipped\n" in out


@pytest.mark.parametrize("verb",
                         ["matchings", "diagram", "chambers", "dump-lattice"])
def test_the_empty_quiver_stops_other_verbs(verb, tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(EMPTY_QUIVER))
    code, out, err = run([verb, str(empty)], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith(f"error[{verb}:invalid]")


SPHERE_DIMER = {  # two parallel edges trace a sphere, not a torus
    "white": ["w"], "black": ["b"],
    "edges": [{"id": "e1", "white": "w", "black": "b"},
              {"id": "e2", "white": "w", "black": "b"}],
    "rotation": {"w": ["e1", "e2"], "b": ["e1", "e2"]},
}


def test_a_non_toroidal_dimer_fails_validation_like_a_quiver(tmp_path,
                                                             capsys):
    bad = tmp_path / "sphere.json"
    bad.write_text(json.dumps(SPHERE_DIMER))
    code, out, err = run(["validate", str(bad)], capsys)
    assert code == 3
    assert err == "error[validate:invalid] 1 structural violations\n"
    assert ("  euler                 FAIL: #vertices - #arrows + #faces = 2, "
            "expected 0\n") in out
    assert "  nondegenerate         skipped\n" in out


def test_a_non_toroidal_dimer_stops_other_verbs(tmp_path, capsys):
    bad = tmp_path / "sphere.json"
    bad.write_text(json.dumps(SPHERE_DIMER))
    code, out, err = run(["matchings", str(bad)], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error[matchings:invalid]")


def test_a_dimer_node_of_degree_one_exits_two(tmp_path, capsys):
    doc = {
        "white": ["w1", "w2"], "black": ["b"],
        "edges": [{"id": "e1", "white": "w1", "black": "b"},
                  {"id": "e2", "white": "w2", "black": "b"}],
        "rotation": {"w1": ["e1"], "w2": ["e2"], "b": ["e1", "e2"]},
    }
    bad = tmp_path / "leaf.json"
    bad.write_text(json.dumps(doc))
    for verb in ("validate", "matchings"):
        code, out, err = run([verb, str(bad)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error[{verb}:format] node 'w1' has degree < 2\n"


def test_theta_length_mismatch_exits_two(capsys):
    code, _, err = run(["fan", SPP, "--theta=1,2"], capsys)
    assert code == 2
    assert err == "error[fan:usage] --theta has 2 entries for 3 vertices\n"


def test_negative_max_height_exits_two(capsys):
    code, out, err = run(["sections", SPP, "--theta=1,2,-3",
                          "--max-height", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert err == ("error[sections:usage] max_height must be nonnegative, "
                   "got -1\n")


def test_a_huge_max_height_exits_four_before_walking_the_box(capsys):
    # the capped section polytope's box holds about 2.7e23 points
    start = time.process_time()
    code, out, err = run(["sections", SPP, "--theta=-2,1,1",
                          "--max-height", "100000000"], capsys)
    assert time.process_time() - start < 1.0
    assert code == 4
    assert out == ""
    assert err.startswith("error[sections:degenerate] the bounding box "
                          "holds 2700")
    assert err.endswith("lattice points; at most 100000 are enumerated\n")


def test_non_integer_theta_exits_two(capsys):
    code, _, err = run(["fan", SPP, "--theta=1,x,1"], capsys)
    assert code == 2
    assert err.startswith("error[fan:usage]")


def test_missing_theta_exits_two(capsys):
    code, _, err = run(["fan", SPP], capsys)
    assert code == 2
    assert err == "error[fan:usage] this verb needs --theta\n"


def test_wall_theta_exits_four(capsys):
    code, _, err = run(["fan", SPP, "--theta=0,1,-1"], capsys)
    assert code == 4
    assert err.startswith("error[fan:degenerate]")


def test_chambers_of_seven_vertices_exit_four(tmp_path, capsys):
    path = tmp_path / "z7.json"
    path.write_text(orbifold_text(1, 7), encoding="utf-8")
    code, out, err = run(["chambers", str(path)], capsys)
    assert code == 4
    assert out == ""
    assert err.startswith("error[chambers:degenerate]")
    assert "this tiling has 7" in err


def run_twenty_six_vertex_fan(tmp_path, capsys):
    path = tmp_path / "z2z13.json"
    path.write_text(orbifold_text(2, 13), encoding="utf-8")
    theta = [*range(1, 26), -sum(range(1, 26))]
    return run(["fan", str(path),
                f"--theta={','.join(map(str, theta))}"], capsys)


def test_a_fan_of_twenty_six_vertices_exits_four(tmp_path, capsys,
                                                 monkeypatch):
    # No document past the budget of 36 enumerates quickly, so the
    # budget is lowered to check the exit code and message.
    monkeypatch.setattr(stability, "_MAX_SUBSET_SUM_VERTICES", 25)
    code, out, err = run_twenty_six_vertex_fan(tmp_path, capsys)
    assert code == 4
    assert out == ""
    assert err == ("error[fan:degenerate] stability parameter sums support "
                   "at most 25 vertices; this tiling has 26\n")


def test_a_fan_of_twenty_six_vertices_exits_zero(tmp_path, capsys):
    code, out, err = run_twenty_six_vertex_fan(tmp_path, capsys)
    assert code == 0
    assert out and err == ""


def test_bad_vertex_order_exits_two(capsys):
    code, _, err = run(["fan", SPP, "--theta=1,1,-2",
                        "--vertex-order", "2,2,1"], capsys)
    assert code == 2
    assert "permutation" in err


def test_unknown_base_exits_two(capsys):
    code, _, err = run(["tilting", SPP, "--theta=-2,1,1", "--base", "9"],
                       capsys)
    assert code == 2
    assert err.startswith("error[tilting:usage]")


def test_unknown_verb_and_no_arguments_exit_two(capsys):
    assert run(["bogus", SPP], capsys)[0] == 2
    assert run([], capsys)[0] == 2


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------

def test_module_entry_point_runs_standalone():
    proc = subprocess.run(
        [sys.executable, "-m", "branetile.cli", "matchings", SPP],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == SPP_MATCHINGS_OUTPUT


def test_a_dimer_whose_rotation_is_not_an_object_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "white": ["w"], "black": ["k"],
        "edges": [{"id": "e", "white": "w", "black": "k"}],
        "rotation": [["e"], ["e"]]}))
    code, out, err = run(["validate", str(bad)], capsys)
    assert code == 2
    assert err == "error[validate:format] 'rotation' must be an object\n"
    assert out == ""
