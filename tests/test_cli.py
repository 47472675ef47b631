"""CLI behavior: exit codes, JSON stability, corpus replay."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spuncalc
from spuncalc import cli, corpus, homology, lens, surgery
from spuncalc.cli import MAX_PAGE_HOLES, main
from spuncalc.errors import ECHO_CHARS, echo


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lens_human_output(capsys):
    code, out, _ = run(capsys, "lens", "7", "2")
    assert code == 0
    assert "expansion [-4, -2]" in out
    assert "W_{2,0}" in out
    assert "word parity [0, 0] vs reduced parity [0, 0]" in out


def test_lens_bad_input_exits_2(capsys):
    code, _, err = run(capsys, "lens", "4", "2")
    assert code == 2
    assert "coprime" in err


def test_a_failed_check_exits_1_whatever_keys_it_carries():
    assert cli.exit_code([{"name": "a", "passed": True}]) == 0
    assert cli.exit_code([{"name": "a", "passed": True},
                          {"name": "b", "passed": False, "detail": "extra"}]) == 1


def test_lens_checks_are_all_hard():
    for p, q in [(2, 1), (7, 2), (40, 39), (357, 73)]:
        _, checks, _ = cli.lens_report(p, q)
        assert all(set(c) == {"name", "passed"} and c["passed"] for c in checks), (p, q)


def test_lens_json_deterministic_without_timestamp(capsys):
    code, out1, _ = run(capsys, "lens", "8", "1", "--json", "--no-timestamp")
    assert code == 0
    _, out2, _ = run(capsys, "lens", "8", "1", "--json", "--no-timestamp")
    assert out1 == out2
    report = json.loads(out1)
    assert report["schema"] == "spuncalc-report/3"
    assert "generated_at" not in report
    assert report["outputs"]["target"] == {"dim": 2, "s1xs": 0, "trivial": 1, "twisted": 0}
    # parse -> serialize -> parse fixpoint
    assert json.loads(json.dumps(report)) == report


def test_lens_json_carries_timestamp_by_default(capsys):
    _, out, _ = run(capsys, "lens", "8", "1", "--json")
    assert "generated_at" in json.loads(out)


def test_embed_command(tmp_path, capsys):
    word = tmp_path / "word.txt"
    word.write_text("T{1}^3 T{1,2}^3 T{2}^2\n")
    code, out, _ = run(capsys, "embed", "--page", "2", "--word", str(word))
    assert code == 0
    assert "W_{1,1}" in out
    assert "#^2 S2x~S2" in out

    code, out, _ = run(capsys, "embed", "--page", "2", "--word", str(word),
                       "--json", "--no-timestamp")
    report = json.loads(out)
    assert report["outputs"]["parity"] == [0, 1]
    assert report["outputs"]["spin"] is False
    assert report["conventions"]
    assert report["checks"] == []


def test_embed_rejects_push_words(tmp_path, capsys):
    word = tmp_path / "word.txt"
    word.write_text("P{2|1}\n")
    code, _, err = run(capsys, "embed", "--page", "2", "--word", str(word))
    assert code == 2
    assert "certificate" in err


def test_certify_s4_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("T{1}^4 T{1} P{2|1}\n")
    code, out, _ = run(capsys, "certify-s4", "--page", "2", "--word", str(good))
    assert code == 0
    assert "certified: yes" in out

    bad = tmp_path / "bad.txt"
    bad.write_text("T{1}^4 P{2|1}\n")
    code, out, _ = run(capsys, "certify-s4", "--page", "2", "--word", str(bad))
    assert code == 1
    assert "certified: no" in out


def test_surgery_command_with_moves(tmp_path, capsys):
    diagram = tmp_path / "d.txt"
    diagram.write_text("strands 2\nframings -4 -2\nA 1 2 +1\n")
    moves = tmp_path / "moves.json"
    moves.write_text(json.dumps([
        {"move": "blow_up", "region": [1, 2], "sign": 1},
        {"move": "blow_down", "component": 3},
    ]))
    code, out, _ = run(capsys, "surgery", str(diagram), "--moves", str(moves),
                       "--json", "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    assert all(m["h1_preserved"] for m in report["outputs"]["moves"])
    assert report["outputs"]["h1"] == {"factors": [7], "free_rank": 0}
    word = report["outputs"]["open_book"]["word"]
    assert {"op": "twist", "curve": [1], "exp": 4} in word


def test_surgery_onaran_export(tmp_path, capsys):
    diagram = tmp_path / "d.txt"
    diagram.write_text("strands 1\nframings -7\n")
    code, out, _ = run(capsys, "surgery", str(diagram))
    assert code == 0
    assert "T{1}^7" in out
    assert "Z/7" in out
    # with no move the only diagram's H1 is checked against its ranks mod 2 and 3
    code, out, _ = run(capsys, "surgery", str(diagram), "--json", "--no-timestamp")
    assert (code, json.loads(out)["checks"]) == (
        0, [{"name": "H1 agrees with rank mod 2 and mod 3", "passed": True}])


def test_pi1_command(tmp_path, capsys):
    pres = tmp_path / "p.txt"
    pres.write_text("gens 1\nx1x1\n")
    code, out, _ = run(capsys, "pi1", str(pres))
    assert code == 0
    assert "Z/2" in out

    code, out, _ = run(capsys, "pi1", str(pres), "--json", "--no-timestamp")
    report = json.loads(out)
    assert report["checks"] == [{"name": "H1 agrees with rank mod 2 and mod 3", "passed": True}]
    assert report["outputs"]["abelianization"] == {"factors": [2], "free_rank": 0}
    assert report["outputs"]["recovered"]["relators"] == ["x1x1"]


def test_pi1_takes_up_to_max_page_holes_generators(tmp_path, capsys):
    pres = tmp_path / "p.txt"
    pres.write_text(f"gens {MAX_PAGE_HOLES}\n")
    code, out, _ = run(capsys, "pi1", str(pres), "--json", "--no-timestamp")
    assert code == 0
    assert json.loads(out)["outputs"]["abelianization"]["free_rank"] == MAX_PAGE_HOLES


def test_pi1_bad_file_exits_2(tmp_path, capsys):
    pres = tmp_path / "p.txt"
    pres.write_text("x1x1\n")
    code, _, err = run(capsys, "pi1", str(pres))
    assert code == 2
    assert "gens" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "embed", "--page", "2", "--word", "/nonexistent")
    assert code == 2


def test_missing_moves_file_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.txt").write_text(GOOD_DIAGRAM)
    code, out, err = run(capsys, "surgery", "d.txt", "--moves", "missing.json")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "No such file" in err and "malformed JSON" not in err


class BrokenStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_broken_stdout_is_not_bad_input(monkeypatch, capsys):
    # a reader that closed the pipe (as ``| head -1`` does) is an output
    # fault: it must not read as exit 2 with an error line
    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    with pytest.raises(BrokenPipeError):
        main(["lens", "500", "499"])
    assert "error:" not in capsys.readouterr().err


def test_console_script_exits_141_quietly_on_a_closed_pipe(tmp_path):
    # ``spuncalc embed --page 100000 --word w.txt | head -1`` on the word
    # T{1}: the text report lists 100,000 parities (about 300 KB), far more
    # than a pipe's buffer, so writing fails once the reader is gone. A lens
    # report no longer serves: L(500,499)'s is about 21 KB, its curves written
    # as runs.
    word = tmp_path / "w.txt"
    word.write_text("T{1}\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(spuncalc.__file__))}
    proc = subprocess.Popen([sys.executable, "-m", "spuncalc.cli", "embed", "--page", "100000",
                             "--word", str(word)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"page: Sigma_{0,100001}")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


@pytest.mark.parametrize("argv", [["lens", "x", "2"], ["frob"]], ids=["lens-x-2", "frob"])
def test_console_script_argv_error_is_one_line(argv):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(spuncalc.__file__))}
    proc = subprocess.run([sys.executable, "-m", "spuncalc.cli", *argv], capture_output=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(b"error: ")


def singular_diagram(n):
    """n strands, no linking of +-1, and strand n a copy of strand n - 1:
    framings from (2, 4, 6, -2, 3, 9) and links from (0, 0, 2, -2, 3, -3)."""
    rng = random.Random(1)
    framings = [rng.choice((2, 4, 6, -2, 3, 9)) for _ in range(n - 1)]
    links = {(i, j): rng.choice((0, 0, 2, -2, 3, -3))
             for i in range(1, n) for j in range(i + 1, n)}
    framings.append(framings[-1])
    links.update({(i, n): links[i, n - 1] for i in range(1, n - 1)})
    links[n - 1, n] = framings[-1]
    lines = [f"strands {n}", "framings " + " ".join(map(str, framings))]
    lines += [f"A {i} {j} {e:+d}" for (i, j), e in sorted(links.items()) if e]
    return "\n".join(lines) + "\n"


def wide_presentation(relators, gens):
    """Each relator gives each generator an exponent sum drawn from
    (0, 2, -2, 3, -3, 4, 6), written as that many equal letters."""
    rng = random.Random(1)
    lines = [f"gens {gens}"]
    for _ in range(relators):
        sums = [rng.choice((0, 2, -2, 3, -3, 4, 6)) for _ in range(gens)]
        lines.append("".join((f"x{g}" if e > 0 else f"X{g}") * abs(e)
                             for g, e in enumerate(sums, 1)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command, text, h1", [
    ("surgery", singular_diagram(60), 1),
    ("pi1", wide_presentation(60, 180), 120),
], ids=["surgery-singular-60", "pi1-60x180"])
def test_singular_and_wide_relation_matrices_end_within_a_minute(tmp_path, command, text, h1):
    # a 13 KB diagram whose linking matrix is singular, and a 105 KB
    # presentation whose 60 x 180 relation matrix holds no +-1: no unit
    # pivot applies, so each Smith form rests on Bareiss and the finisher
    # modulo a nonzero minor; elimination over Z took minutes on either
    path = tmp_path / "input.txt"
    path.write_text(text)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(spuncalc.__file__))}
    proc = subprocess.run([sys.executable, "-m", "spuncalc.cli", command, str(path), "--json",
                           "--no-timestamp"], capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    report = json.loads(proc.stdout)
    assert all(check["passed"] for check in report["checks"])
    outputs = report["outputs"]
    assert outputs["h1" if command == "surgery" else "abelianization"]["free_rank"] == h1
    if command == "pi1":
        assert outputs["abelianization"]["factors"] == []


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: spuncalc" if flag == "--help" else "spuncalc ")


def test_corpus_run_all_pass(capsys):
    code, out, _ = run(capsys, "corpus", "run")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines and all(l.startswith("PASS") for l in lines)


def test_corpus_results_match_runner(capsys):
    results = corpus.run_corpus()
    assert results and all(r["passed"] for r in results)
    kinds = {corpus.load_fixture(n)["kind"] for n in corpus.fixture_names()}
    assert kinds == {"embed", "lens", "s4", "atoms", "surgery"}


# the input keys each kind's replay reads; a case may carry only these and
# name, expect, exit and comment, so a stale key cannot pass unread
CASE_INPUTS = {"lens": {"p", "q"}, "embed": {"page", "word"}, "s4": {"page", "word"},
               "surgery": {"diagram"}, "atoms": {"page", "monodromy"}}


def test_corpus_cases_carry_only_the_inputs_their_replay_reads():
    for name in corpus.fixture_names():
        fixture = corpus.load_fixture(name)
        for case in fixture["cases"]:
            inputs = case.keys() - {"name", "expect", "exit", "comment"}
            assert inputs == CASE_INPUTS[fixture["kind"]], (name, case["name"])


# (fixture, case index, key path, mutated value, detail of the one FAIL):
# one mutated expectation per fixture kind (every kind is replayed), a pin
# the report does not carry, and a wrong exit code on a command case and
# on an atoms case
REPLAY_MUTATIONS = [
    ("lens_spaces.json", 0, ["expect", "psi_parity"], [1], "psi_parity [0] != [1]"),
    ("embedding_targets.json", 0, ["expect", "raw", "trivial"], 9, "raw.trivial 1 != 9"),
    ("embedding_targets.json", 0, ["expect", "exponents"], [6, 5], "exponents missing"),
    ("sphere_certificates.json", 0, ["expect", "certified"], False, "certified True != False"),
    ("surgery_diagrams.json", 0, ["expect", "open_book", "parity"], [0],
     "open_book.parity [1] != [0]"),
    ("evaluator_atoms.json", 0, ["expect", "form", "trivial"], 0, "form.trivial 1 != 0"),
    ("sphere_certificates.json", 0, ["exit"], 1, "exit 0 != 1"),
    ("evaluator_atoms.json", 2, ["exit"], 1, "exit 0 != 1"),
]


@pytest.mark.parametrize("name, index, keys, value, detail", REPLAY_MUTATIONS,
                         ids=["lens", "embed", "embed-missing-key", "s4", "surgery", "atoms",
                              "exit", "atoms-exit"])
def test_corpus_replay_names_the_path_of_a_mutated_expectation(monkeypatch, capsys, name, index,
                                                                keys, value, detail):
    load = corpus.load_fixture

    def mutated(fixture_name):
        fixture = load(fixture_name)
        if fixture_name == name:
            entry = fixture["cases"][index]
            for key in keys[:-1]:
                entry = entry[key]
            entry[keys[-1]] = value
        return fixture

    monkeypatch.setattr(corpus, "load_fixture", mutated)
    failed = [r for r in corpus.run_corpus() if not r["passed"]]
    assert [(r["file"], r["detail"]) for r in failed] == [(name, detail)]
    code, out, _ = run(capsys, "corpus", "run")
    assert code == 1
    assert f"FAIL: {failed[0]['name']} ({detail})" in out.splitlines()


def test_a_case_whose_replay_raises_fails_and_the_run_goes_on(monkeypatch, capsys):
    load = corpus.load_fixture

    def broken(fixture_name):
        fixture = load(fixture_name)
        if fixture_name == "lens_spaces.json":
            del fixture["cases"][0]["p"]
        return fixture

    monkeypatch.setattr(corpus, "load_fixture", broken)
    results = corpus.run_corpus()
    failed = [r for r in results if not r["passed"]]
    assert [(r["file"], r["detail"]) for r in failed] == [("lens_spaces.json", "KeyError: 'p'")]
    assert len(results) == sum(len(load(n)["cases"]) for n in corpus.fixture_names())
    code, out, _ = run(capsys, "corpus", "run")
    assert code == 1
    assert f"FAIL: {failed[0]['name']} (KeyError: 'p')" in out.splitlines()


GOOD_DIAGRAM = "strands 2\nframings -4 -2\nA 1 2 +1\n"


@pytest.mark.parametrize("argv, files, needle", [
    (["surgery", "d.txt"], {"d.txt": "strands 2\nframings -1 -2\nA 1\n"}, "diagram line"),
    (["surgery", "d.txt"], {"d.txt": "strands x\nframings -1\n"}, "non-integer"),
    (["surgery", "d.txt", "--moves", "m.json"],
     {"d.txt": GOOD_DIAGRAM, "m.json": json.dumps([{"move": "blow_up", "sign": 1}])},
     "'region'"),
    (["embed", "--page", "3", "--word", "w.json"], {"w.json": '[{"op": "twist", "curve": [1]'},
     "malformed JSON"),
    (["embed", "--page", "3", "--word", "w.json"], {"w.json": "[1, 2]"}, "object"),
    (["pi1", "g.txt"], {"g.txt": "gens 1\nx2\n"}, "outside"),
    (["surgery", "d.txt", "--moves", "m.json"],
     {"d.txt": GOOD_DIAGRAM,
      "m.json": json.dumps([{"move": "blow_up", "region": ["a"], "sign": 1}])}, "'region'"),
    (["surgery", "d.txt", "--moves", "m.json"],
     {"d.txt": "strands 1\nframings 0\n",
      "m.json": json.dumps([{"move": "rolfsen_twist", "component": 1, "twists": "q"}])},
     "'twists'"),
    (["surgery", "d.txt", "--moves", "m.json"],
     {"d.txt": "strands 1\nframings 1\n",
      "m.json": json.dumps([{"move": "blow_down", "component": [1]}])}, "'component'"),
    (["surgery", "d.txt", "--moves", "m.json"],
     {"d.txt": GOOD_DIAGRAM,
      "m.json": json.dumps({"move": "blow_up", "region": [1], "sign": 1})}, "list"),
    (["surgery", "d.json"], {"d.json": '{"framings": [1]}'}, "strands"),
    (["surgery", "d.json"], {"d.json": '{"strands": "two", "framings": []}'}, "integers"),
    (["surgery", "d.json"], {"d.json": '{"strands": 2, "framings": [1, 1], "braid": [[1, 2]]}'},
     "braid letters"),
    (["surgery", "d.json"],
     {"d.json": '{"strands": 2, "framings": [1, 1], "braid": [[1, 2, "x"]]}'}, "integers"),
    (["embed", "--page", "3", "--word", "w.json"], {"w.json": '[{"op": "twist", "curve": ["a"]}]'},
     "integer"),
    (["embed", "--page", "3", "--word", "w.json"],
     {"w.json": '[{"op": "twist", "curve": [1], "exp": "q"}]'}, "integer"),
    (["pi1", "g.txt"], {"g.txt": "gens x\nx1\n"}, "gens"),
    (["surgery", "d.json"], {"d.json": '{"strands": 2, "framings": "12"}'}, "integers"),
    (["surgery", "d.json"], {"d.json": '{"strands": 1.9, "framings": [1]}'}, "integers"),
    (["surgery", "d.json"], {"d.json": '{"strands": 1, "framings": [1.7]}'}, "integers"),
    (["embed", "--page", "3", "--word", "w.json"],
     {"w.json": '[{"op": "twist", "curve": "12", "exp": 2.9}]'}, "integer"),
    (["embed", "--page", "3", "--word", "w.json"],
     {"w.json": '[{"op": "twist", "curve": "12", "exp": 2}]'}, "integer"),
    (["embed", "--page", "3", "--word", "w.json"], {"w.json": '{"letters": 5}'}, "must be a list"),
    (["embed", "--page", "3", "--word", "w.json"], {"w.json": '{"letters": null}'},
     "must be a list"),
    (["embed", "--page", "3", "--word", "w.json"], {"w.json": '{"x": 1}'}, "must be a list"),
    (["embed", "--page", "3", "--word", "w.txt"], {"w.txt": b"T{1}\xff\n"}, "decode"),
    (["pi1", "g.txt"], {"g.txt": b"gens 1\n\xe9\n"}, "decode"),
    (["surgery", "d.txt"], {"d.txt": b"strands 1\nframings \xff\n"}, "decode"),
    (["surgery", "d.txt"], {"d.txt": None}, "Is a directory"),
    (["embed", "--page", "2", "--word", "w.txt"], {"w.txt": "T{1}^" + "9" * 5000}, "too long"),
    (["pi1", "g.txt"], {"g.txt": "gens 1\nx" + "9" * 5000 + "\n"}, "digits"),
    (["embed", "--page", "10000000", "--word", "w.txt"], {"w.txt": "T{1}"}, "at most"),
    (["certify-s4", "--page", "2000000", "--word", "w.txt"], {"w.txt": "T{1}"}, "at most"),
    (["lens", "x", "2"], {}, "invalid integer value"),
    (["frob"], {}, "invalid choice"),
    (["lens", "7", "2", "--bogus"], {}, "unrecognized arguments: --bogus"),
    (["embed", "--page", "2", "--word", "w.txt", "--raw"], {"w.txt": "T{1}"},
     "unrecognized arguments: --raw"),
    (["embed", "--page", "2"], {}, "required: --word"),
    (["embed", "--page", "2", "--word", "w.json"],
     {"w.json": '[{"op":"twist","curve":[1]},{"op":"twist","curve":[true]}]'}, "integers"),
    (["embed", "--page", "2", "--word", "w.json"],
     {"w.json": '[{"op":"twist","curve":[1]},{"op":"twist","curve":[1.0]}]'}, "integers"),
    (["pi1", "g.txt"], {"g.txt": "gens 2\nx1x2\ngens 3\nx3\n"}, "repeated gens line"),
    (["pi1", "g.txt"], {"g.txt": "gensfoo 2\nx1x2X1X2\n"}, "cannot parse relator"),
    (["surgery", "d.txt"], {"d.txt": "strands 2\nframings 1 2\nstrands 3\nframings 1 2 3\n"},
     "repeated strands line"),
    (["surgery", "d.txt"], {"d.txt": "strands 2\nframings 1 2\nframings 3 4\n"},
     "repeated framings line"),
    (["embed", "--page", "3", "--word", "w.txt"], {"w.txt": "T{0}"}, "1-based"),
    (["embed", "--page", "3", "--word", "w.json"], {"w.json": '[{"op": "twist"}]'},
     "no 'curve' field"),
    (["embed", "--page", "3", "--word", "w.json"], {"w.json": '[{"op": "twist", "curve": 5}]'},
     "needs a list of integers"),
    (["embed", "--page", "3", "--word", "w.json"],
     {"w.json": '[{"op": "twist", "curve": ' + "[" * 500 + "1" + "]" * 500 + "}]"},
     "needs a list of integers"),
    (["surgery", "d.json"],
     {"d.json": '{"strands": 2, "framings": [-4, -2], "braids": [[1, 2, 1]]}'},
     "JSON diagram has unknown field 'braids'"),
    (["embed", "--page", "2", "--word", "w.json"],
     {"w.json": '[{"op": "twist", "curve": [1], "exponent": 3}]'}, "unknown field 'exponent'"),
    (["embed", "--page", "2", "--word", "w.json"],
     {"w.json": '[{"op": "push", "boundary": 1, "around": [2], "curve": [2]}]'},
     "unknown field 'curve'"),
    (["surgery", "d.txt", "--moves", "m.json"],
     {"d.txt": "strands 1\nframings 1\n",
      "m.json": json.dumps([{"move": "blow_down", "component": 1, "twists": 2}])},
     "has unknown field 'twists'"),
    (["lens", "1_3", "5"], {}, "invalid integer value"),
    (["lens", "\u0661\u0663", "5"], {}, "invalid integer value"),
    (["embed", "--page", "\u0662", "--word", "w.txt"], {"w.txt": "T{1}"}, "invalid integer value"),
    (["surgery", "d.txt"], {"d.txt": "strands 2\nframings 1_0 -2\n"}, "non-integer field"),
    (["surgery", "d.txt"], {"d.txt": "strands \u0662\nframings 1 -2\n".encode()},
     "non-integer field"),
    (["embed", "--page", "2", "--word", "w.txt"], {"w.txt": "T{\u0661}^3\n".encode()},
     "unrecognized word letter"),
    (["pi1", "g.txt"], {"g.txt": "gens 2\nx\u0661x2\n".encode()}, "cannot parse relator"),
    (["pi1", "g.txt"], {"g.txt": "gens \u0662\nx1x2\n".encode()}, "bad gens line"),
    (["embed", "--page", "3", "--word", "w.txt"], {"w.txt": "T{5..3}"}, "run 5..3 is empty"),
    (["embed", "--page", "3", "--word", "w.txt"], {"w.txt": "T{..3}"}, "unrecognized word letter"),
    (["embed", "--page", "3", "--word", "w.txt"], {"w.txt": "T{0..3}"}, "1-based"),
    (["embed", "--page", "3", "--word", "w.json"], {"w.json": '[{"op":"twist","curve":[[5,3]]}]'},
     "run 5..3 is empty"),
    (["embed", "--page", "3", "--word", "w.json"],
     {"w.json": '[{"op":"twist","curve":[[1,2,3]]}]'}, "[first, last] runs"),
    (["embed", "--page", "3", "--word", "w.json"],
     {"w.json": '[{"op":"twist","curve":[[1.0,3]]}]'}, "integers"),
], ids=["truncated-letter", "non-integer-strands", "move-missing-key", "malformed-json",
        "non-object-letter", "letter-outside-gens", "move-region-not-integer",
        "move-twists-not-integer", "move-component-list", "moves-file-object",
        "json-diagram-no-strands", "json-diagram-strands-text", "json-diagram-two-field-letter",
        "json-diagram-sign-not-integer", "json-word-curve-not-integer",
        "json-word-exp-not-integer", "gens-not-integer", "json-diagram-framings-string",
        "json-diagram-strands-float", "json-diagram-framing-float", "json-word-curve-string-exp-float",
        "json-word-curve-string", "json-word-letters-number", "json-word-letters-null",
        "json-word-object",
        "word-not-utf8", "presentation-not-utf8", "diagram-not-utf8", "diagram-is-directory",
        "word-exponent-too-long", "relator-index-too-long", "embed-page-too-large",
        "certify-s4-page-too-large", "argv-not-an-integer", "argv-unknown-command",
        "argv-unknown-option", "embed-raw-removed", "argv-missing-option", "json-word-reused-curve-bool",
        "json-word-reused-curve-float", "repeated-gens", "gens-prefix", "repeated-strands", "repeated-framings",
        "word-hole-zero", "json-word-no-curve", "json-word-curve-number",
        "json-word-curve-nested-500", "json-diagram-unknown-key", "json-word-unknown-key",
        "json-word-push-unknown-key", "move-unknown-key", "argv-underscore-digits",
        "argv-arabic-indic-digits", "page-arabic-indic-digit", "diagram-underscore-digits",
        "diagram-arabic-indic-strands", "word-arabic-indic-hole", "relator-arabic-indic-index",
        "gens-arabic-indic-count", "word-run-decreasing", "word-run-no-first",
        "word-run-hole-zero", "json-word-run-decreasing", "json-word-run-three-fields",
        "json-word-run-float"])
def test_malformed_input_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys, argv, files,
                                                     needle):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():  # bytes are written raw, None makes a directory
        if content is None:
            (tmp_path / name).mkdir()
        elif isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content)
    code, out, err = run(capsys, *argv, "--json", "--no-timestamp")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert needle in err


# inputs that repeat a value of 10^5 entries or 3,000 digits in their error; the line keeps
# errors.ECHO_CHARS of each value
OVERSIZED_INPUTS = [
    (["embed", "--page", "2", "--word", "w.json"], {"w.json": json.dumps([[1] * 100_000])},
     "must be an object"),
    (["embed", "--page", "2", "--word", "w.json"],
     {"w.json": json.dumps([{"op": "twist", "curve": list(range(1, 100_001))}])}, "does not fit"),
    (["embed", "--page", "2", "--word", "w.json"],
     {"w.json": json.dumps([{"op": "twist", "curve": [1] * 100_000 + [0.5]}])}, "integers"),
    (["embed", "--page", "2", "--word", "w.txt"], {"w.txt": "T{" + "1," * 100_000 + "x}"},
     "unrecognized"),
    (["certify-s4", "--page", "2", "--word", "w.txt"],
     {"w.txt": "P{2|" + ",".join(map(str, range(3, 100_003))) + "}"}, "does not fit"),
    (["surgery", "d.txt", "--moves", "m.json"],
     {"d.txt": "strands 2\nframings -1 -2\n",
      "m.json": json.dumps([{"move": "blow_up", "region": list(range(1, 100_001)), "sign": 1}])},
     "out of range"),
    (["surgery", "d.txt", "--moves", "m.json"],
     {"d.txt": "strands 2\nframings -1 -2\n",
      "m.json": json.dumps([{"move": "blow_up", "region": [1] * 100_000 + ["x"], "sign": 1}])},
     "list of integers"),
    (["surgery", "d.txt"], {"d.txt": "strands 2\nframings " + "1 " * 100_000 + "x\n"},
     "non-integer"),
    (["surgery", "d.json"], {"d.json": json.dumps({"strands": 1, "framings": ["x" * 100_000]})},
     "integers"),
    (["surgery", "d.txt"], {"d.txt": "strands " + "9" * 3000 + "\nframings -1\n"},
     "framings for"),
    (["surgery", "d.txt", "--moves", "m.json"],
     {"d.txt": "strands 2\nframings -1 -2\n",
      "m.json": json.dumps([{"move": "blow_down", "component": 10 ** 3000}])}, "out of range"),
    (["surgery", "d.txt", "--moves", "m.json"],
     {"d.txt": "strands 1\nframings " + "9" * 3000 + "\n",
      "m.json": json.dumps([{"move": "blow_down", "component": 1}])}, "needs framing"),
    (["surgery", "d.txt", "--moves", "m.json"],
     {"d.txt": "strands 1\nframings -1\n",
      "m.json": json.dumps([{"move": "rolfsen_twist", "component": 1, "twists": 10 ** 3000}])},
     "integer calculus"),
    (["pi1", "g.txt"], {"g.txt": "gens 1\n" + "x1" * 100_000 + "y\n"}, "cannot parse"),
    (["pi1", "g.txt"], {"g.txt": "gens 1 " + "2 " * 100_000 + "\n"}, "bad gens"),
    (["lens", "x" * 100_000, "2"], {}, "invalid integer value"),
    (["pi1", "g.txt"], {"g.txt": "gens 1000000000\n"}, "at most 100000 generators"),
    (["lens", "100000", "99999"], {}, "more than 2000 coefficients"),
    (["surgery", "d.txt"], {"d.txt": "strands 100000\nframings " + "0 " * 100_000 + "\n"},
     "at most 200 strands"),
    # H1 = Z/(AB) for framings A = 2 10^3999 + 1 and B = A + 2: the 8,000 digits
    # of AB have no str(), in the text report and in the JSON one
    (["surgery", "d.txt"], {"d.txt": f"strands 2\nframings 2{'0' * 3998}1 2{'0' * 3998}3\n"},
     "report cannot be printed"),
    (["surgery", "d.txt", "--json"],
     {"d.txt": f"strands 2\nframings 2{'0' * 3998}1 2{'0' * 3998}3\n"},
     "report cannot be printed"),
    # a run of 10^12 holes is never expanded: its curve is checked against
    # the page with its generator, and the error names the curve in text
    # and JSON words alike
    (["embed", "--page", "3", "--word", "w.txt"], {"w.txt": "T{1..1000000000000}"},
     "curve {1..1000000000000} does not fit"),
    (["embed", "--page", "3", "--word", "w.json"],
     {"w.json": '[{"op":"twist","curve":[[1,1000000000000]]}]'},
     "curve {1..1000000000000} does not fit"),
    (["certify-s4", "--page", "3", "--word", "w.json"],
     {"w.json": '[{"op":"push","boundary":1,"around":[[2,1000000000000]]}]'},
     "curve {2..1000000000000} does not fit"),
]


@pytest.mark.parametrize("argv, files, needle", OVERSIZED_INPUTS,
                         ids=["word-letter-list", "word-curve-off-page", "word-curve-float",
                              "word-token", "push-curve-off-page", "move-region-off-diagram",
                              "move-region-string", "diagram-line", "diagram-framing-string",
                              "diagram-strands", "move-component", "move-framing", "move-twists",
                              "relator", "gens-line", "argv-token", "gens-count",
                              "lens-expansion", "diagram-strands-count", "h1-text-too-long",
                              "h1-json-too-long", "word-run-off-page", "json-word-run-off-page",
                              "json-push-run-off-page"])
def test_an_oversized_input_gives_one_short_error_line(tmp_path, monkeypatch, capsys, argv, files,
                                                       needle):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert needle in err
    assert len(err.encode()) < 1024


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_a_short_word_of_long_runs_gives_a_short_report(tmp_path, monkeypatch, capsys, flags):
    # 200 tokens of 25 characters, each enclosing 99,999 holes in two runs:
    # a curve is stored and written as its runs, so the report and the
    # memory grow with the word's text, not with the holes it encloses
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.txt").write_text(" ".join(["T{1..49999,50001..100000}"] * 200))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "embed", "--page", "100000", "--word", "w.txt", *flags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert len(out.encode()) < 1_000_000
    assert peak < 50_000_000


def test_echo_repeats_a_short_value_whole_and_cuts_a_long_one():
    assert echo([1, 2]) == "[1, 2]"
    assert echo("T{1}") == "'T{1}'"
    assert echo(frozenset({3}), str) == "frozenset({3})"
    long = echo(list(range(100_000)))
    assert len(long) == ECHO_CHARS and long.startswith("[0, 1, 2, ") and long.endswith("...")
    if hasattr(sys, "get_int_max_str_digits"):  # no str() past 4,300 digits
        assert echo([10 ** 5000]) == "<list too long to show>"


README_FILES = {
    "word.txt": "T{1}^3 T{1,2}^3 T{2}^2\n",
    "cert.txt": "T{1}^4 T{1} P{2|1}\n",
    "diagram.txt": "strands 2\nframings -4 -2\nA 1 2 +1\n",
    "moves.json": '[{"move":"blow_up","region":[1,2],"sign":1},\n'
                  '        {"move":"blow_down","component":3}]\n',
    "group.txt": "gens 2\nx1x2X1X2\n",
}

# words over a few generators, each used many times: T{2,1} and T{01} are
# other texts of T{1,2} and T{1}, and the JSON word leaves some "exp" out
REPEATED_FILES = {
    "repeated.txt": "T{1,2}^3 T{3} T{1,2} T{2,1}^-2 T{3}^2 T{2,4} T{1,2} T{3} T{2,4}^-1 T{01}^5\n"
                    "T{1,2,3,4} T{3} T{1,2}^-1 T{2,4} T{1,2,3,4}^2 T{3}^-3 T{1,2}\n",
    "repeated.json": json.dumps([{"op": "twist", "curve": c, "exp": e} if e != 1 else
                                 {"op": "twist", "curve": c}
                                 for c, e in [([1, 2], 3), ([3], 1), ([1, 2], 1), ([2, 1], -2),
                                              ([3], 2), ([2, 4], 1), ([1, 2], 1), ([3], 1),
                                              ([4, 2], -1), ([1], 5), ([1, 2, 3, 4], 1), ([3], -3),
                                              ([1, 2], -1), ([2, 4], 1)]]),
    "repeated-cert.txt": "T{1}^3 T{1,3} P{2|1} T{1} T{3}^2 T{1,3}^-1 T{1}^3 P{4|3} T{1,3} T{3}\n"
                         "T{1}^-2 T{1,3}^2 T{3} T{1}\n",
}

# H1 = Z/2 + Z/4: D = 8, and the rank mod 2 leaves r_2 = 2 of e = 3, so the
# Smith form's finisher runs modulo 8 on a block that holds units mod 8
SMITH_FILES = {
    "unit-mod-8.txt": "strands 3\nframings -2 3 -2\nA 1 2 -2\nA 1 3 +2\nA 2 3 +4\n",
}


def count_smith(monkeypatch):
    calls = []
    smith = homology.smith_diagonal

    def counting_smith(entries):
        calls.append(1)
        return smith(entries)

    monkeypatch.setattr(homology, "smith_diagonal", counting_smith)
    return calls


def readme_surgery(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in README_FILES.items():
        (tmp_path / name).write_text(text)
    code, out, _ = run(capsys, "surgery", "diagram.txt", "--moves", "moves.json",
                       "--json", "--no-timestamp")
    return code, json.loads(out)["outputs"]


def test_surgery_computes_the_h1_of_its_input_only(tmp_path, monkeypatch, capsys):
    # two moves make a chain of three diagrams; each move's certificate
    # carries H1 across it, so only the input takes a Smith reduction, and
    # the final diagram is checked by its ranks mod 2 and mod 3
    calls = count_smith(monkeypatch)
    code, _ = readme_surgery(tmp_path, monkeypatch, capsys)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["blow_up", "blow_down"])
def test_a_failed_certificate_computes_the_h1_on_both_sides(tmp_path, monkeypatch, capsys, name):
    # the move's result is framed one too high, so its certificate fails and
    # the diagrams on both sides of it take a Smith reduction, as does the
    # input: the blow-up's first side is the input, so two reductions for a
    # faulty blow-up and three for a faulty blow-down; the final diagram's
    # H1 is the one carried to it
    original = getattr(surgery, name)

    def faulty(d, *args):
        out, detail = original(d, *args)
        framings = (out.framings[0] + 1, *out.framings[1:])
        return surgery.FramedBraidDiagram(out.strands, out.braid_word, framings), detail

    monkeypatch.setattr(surgery, name, faulty)
    calls = count_smith(monkeypatch)
    code, outputs = readme_surgery(tmp_path, monkeypatch, capsys)
    assert code == 1
    assert len(calls) == {"blow_up": 2, "blow_down": 3}[name]
    d = surgery.parse_diagram(README_FILES["diagram.txt"])
    up, _ = surgery.blow_up(d, [1, 2], 1)
    final, _ = surgery.blow_down(up, 3)
    moves = outputs["moves"]
    assert [m["h1_before"] for m in moves] + [moves[1]["h1_after"], outputs["h1"]] == [
        surgery.h1_invariants(surgery.linking_matrix(x)).to_json() for x in (d, up, final, final)]
    assert [m["h1_preserved"] for m in moves] == [name != "blow_up", name != "blow_down"]


def test_lens_does_each_step_once(monkeypatch, capsys):
    calls = {}

    def counting(name):
        original = getattr(lens, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    for name in ["cf_expand", "slid_diagram", "psi_parity", "lens_embedding_target"]:
        monkeypatch.setattr(lens, name, counting(name))
    code, _, _ = run(capsys, "lens", "7", "2", "--json", "--no-timestamp")
    assert code == 0
    assert calls == {"cf_expand": 1, "slid_diagram": 1, "psi_parity": 1}


def test_text_mode_builds_no_json_outputs(monkeypatch, capsys):
    calls = []
    word_to_json = cli.word_to_json

    def counting(word):
        calls.append(1)
        return word_to_json(word)

    monkeypatch.setattr(cli, "word_to_json", counting)
    code, _, _ = run(capsys, "lens", "40", "39")
    assert code == 0
    assert len(calls) == 0
    run(capsys, "lens", "40", "39", "--json", "--no-timestamp")
    assert len(calls) == 1


def test_the_largest_lens_report_grows_with_its_answer(capsys):
    # L(2000,1999) has k = 1,999 coefficients, near the most lens takes: its
    # word's suffix curves, written as runs, keep the report under 1 MB,
    # where writing every hole of every suffix took 9.66 MB
    code, out, _ = run(capsys, "lens", "2000", "1999", "--json", "--no-timestamp")
    assert code == 0
    assert len(out.encode()) < 1_000_000
    word = json.loads(out)["outputs"]["open_book_word"]
    assert [letter["curve"] for letter in word[1999:2001]] == [[[1, 1999]], [[2, 1999]]]


def test_parser_state_does_not_leak_between_calls(tmp_path, monkeypatch, capsys):
    # the parser is built once per process; each call must still read as
    # if it had a parser of its own
    monkeypatch.chdir(tmp_path)
    for name, text in README_FILES.items():
        (tmp_path / name).write_text(text)
    embed = ["embed", "--page", "2", "--word", "word.txt"]
    as_json = ["--json", "--no-timestamp"]
    pi1 = ["pi1", "group.txt"]
    for first, second in [(embed + as_json, embed), (embed, embed + as_json),
                          (pi1 + as_json, pi1), (pi1, pi1 + as_json)]:
        fresh = []
        for argv in (first, second):
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        cli.build_parser.cache_clear()
        shared = [run(capsys, *argv) for argv in (first, second)]
        assert cli.build_parser.cache_info().misses == 1
        assert shared == fresh
        assert fresh[0] != fresh[1]


README_COMMANDS = [
    ["lens", "7", "2"],
    ["embed", "--page", "2", "--word", "word.txt"],
    ["certify-s4", "--page", "2", "--word", "cert.txt"],
    ["surgery", "diagram.txt", "--moves", "moves.json"],
    ["pi1", "group.txt"],
    ["corpus", "run"],
]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[argv[0] for argv in README_COMMANDS])
def test_json_report_is_one_compact_sorted_ascii_line(tmp_path, monkeypatch, capsys, argv):
    # the stdlib encoder's compact, key-sorted output is the whole contract
    monkeypatch.chdir(tmp_path)
    for name, text in README_FILES.items():
        (tmp_path / name).write_text(text)
    code, out, err = run(capsys, *argv, "--json", "--no-timestamp")
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"
    assert out.isascii() and out.count("\n") == 1


# SHA-256 of the whole text report (no --json), under the same rule as the
# JSON report pins below.
@pytest.mark.parametrize("argv, digest", [
    (["lens", "7", "2"], "b33db6fa8446534f2c1b6af347d907e94c8a40a3c2a6511440e42a07b228a833"),
    (["surgery", "diagram.txt", "--moves", "moves.json"],
     "32fa94dbbc364d35fcedb034b799b9f5cd92929428b370784851b9ffbbbdf74f"),
    (["embed", "--page", "4", "--word", "repeated.txt"],
     "e0b619c9441eadf6b3b3b5f0e8e50acfe459783dd99df75ca8fa3d03a84934db"),
    (["embed", "--page", "4", "--word", "repeated.json"],
     "2bc64fb161d33fecff399a25e3ff0308dbae37dbabd594ed09f5bd06ee4e5088"),
    (["certify-s4", "--page", "4", "--word", "repeated-cert.txt"],
     "bf48621272e5dcc7e3f1dfffee65d8c9dd168ffa4e240a6aec311faf18c64fdf"),
    (["pi1", "group.txt"], "e9bb0f014e95e4ffa967357185c911c9082447ab34bf3291676a4035d8f7639d"),
    (["corpus", "run"], "c678404c4b1907c05a6b3ede866f9d1811d69531c674a9c0bcde9c72118f704d"),
], ids=["lens-7-2", "surgery-readme", "embed-repeated-text", "embed-repeated-json",
        "certify-s4-repeated", "pi1-readme", "corpus-run"])
def test_text_report_bytes_are_pinned(tmp_path, monkeypatch, capsys, argv, digest):
    monkeypatch.chdir(tmp_path)
    for name, text in {**README_FILES, **REPEATED_FILES}.items():
        (tmp_path / name).write_text(text)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the whole byte-stable report. Report bytes are part of the
# interface: a refactor keeps them, and a deliberate change updates the
# digest together with a CHANGES.md entry saying why.
@pytest.mark.parametrize("argv, digest", [
    (["lens", "7", "2"], "162194fed8eddb4aa90c2a0fe1149e478fc0749221f9f0f2b9187cae05eda606"),
    (["lens", "40", "39"], "26fd6f6b97bd9911dca08c433c6a395584d478c9f5e899c3a017c92f2a27e852"),
    (["surgery", "diagram.txt", "--moves", "moves.json"],
     "48459064be3b2ec11d6b095c6cc713cfc3267e62d44ac2b8b06199468ad96e08"),
    (["embed", "--page", "2", "--word", "word.txt"],
     "b65f668aa146a3c9dca6fddd336f9f74fc54febc9229e8ee74feadfe33ae8ee5"),
    (["certify-s4", "--page", "2", "--word", "cert.txt"],
     "796e846aca2231439722b3de7dbb8bbc1a05592630f4bad4c53f3e75587cc11b"),
    (["corpus", "run"], "6c99a4671a4b612ecd235980a867d3701090c9d650a22c9e445fe3726a9af73b"),
    (["embed", "--page", "4", "--word", "repeated.txt"],
     "2d0ab38c204496c8a7087142544babac2f893ad9a718d8c159eda5edae51c348"),
    (["embed", "--page", "4", "--word", "repeated.json"],
     "d8217abff87dae9d98e36ce498e1f37a7541418c2a18f8838044857e1e15bd23"),
    (["certify-s4", "--page", "4", "--word", "repeated-cert.txt"],
     "214dc6b72ead7615f026fd8f9252c4563771867216ae02af0eb1194252cf5335"),
    (["pi1", "group.txt"], "6f24c5b7600aa243cec063344d5cb01b79c4f043339aab1d225510e67af62ce3"),
    (["surgery", "unit-mod-8.txt"],
     "aaea369622b9c3f4847b2bb7e178010621c48694269c9dfca63dce0b1419f895"),
], ids=["lens-7-2", "lens-40-39", "surgery-readme", "embed-readme", "certify-s4-readme",
        "corpus-run", "embed-repeated-text", "embed-repeated-json", "certify-s4-repeated",
        "pi1-readme", "surgery-unit-mod-8"])
def test_json_report_bytes_are_pinned(tmp_path, monkeypatch, capsys, argv, digest):
    monkeypatch.chdir(tmp_path)
    for name, text in {**README_FILES, **REPEATED_FILES, **SMITH_FILES}.items():
        (tmp_path / name).write_text(text)
    code, out, _ = run(capsys, *argv, "--json", "--no-timestamp")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Input-boundary property of ``surgery``: arbitrary text diagrams, JSON
# diagrams and JSON move lists, with at most 8 strands (3 moves add at most
# 3 more), so no run builds a large matrix.
small_json = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(
        st.text(max_size=4), children, max_size=4),
    max_leaves=10,
)
diagram_tokens = st.one_of(st.integers(-3, 8).map(str),
                           st.sampled_from(["+1", "-2", "0", "2.5", "x", "1e3", "\u0663"]))
text_diagrams = st.one_of(
    st.text(max_size=40),
    st.lists(st.tuples(st.sampled_from(["strands", "framings", "A", "#", "B", ""]),
                       st.lists(diagram_tokens, max_size=5)),
             max_size=8).map(lambda lines: "\n".join(" ".join([k, *v]) for k, v in lines)),
)
json_diagrams = st.fixed_dictionaries({}, optional={
    "strands": st.integers(-1, 8) | small_json,
    "framings": st.lists(st.integers(-9, 9), max_size=8) | small_json,
    "braid": st.lists(st.lists(st.integers(-3, 8), max_size=4), max_size=6) | small_json,
}).map(json.dumps)
move_fields = st.integers(-2, 9) | st.integers(-10**12, 10**12) | small_json
json_moves = st.one_of(
    st.lists(st.fixed_dictionaries(
        {"move": st.sampled_from(["blow_up", "blow_down", "rolfsen_twist", "flip"]) | small_json},
        optional={"region": st.lists(st.integers(-1, 9), max_size=4) | small_json,
                  "sign": move_fields, "component": move_fields, "twists": move_fields}),
        max_size=3),
    small_json,
).map(json.dumps)


def run_with_files(argv: list[str], files: dict[str, str]) -> tuple[int, str, str]:
    """``main(argv)`` after writing each of ``files`` to a fresh directory;
    an argument naming one of them is replaced by its path."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8", errors="surrogatepass") as f:
                f.write(text)
        argv = [os.path.join(tmp, arg) if arg in files else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_surgery(diagram: str, moves: str | None, as_json: bool) -> tuple[int, str]:
    files = {"d": diagram} if moves is None else {"d": diagram, "m.json": moves}
    argv = ["surgery", "d"] + (["--moves", "m.json"] if moves is not None else [])
    code, _, err = run_with_files(argv + (["--json", "--no-timestamp"] if as_json else []), files)
    return code, err


@given(text_diagrams | json_diagrams, st.none() | json_moves, st.booleans())
@example('{"strands": ' + "9" * 5000 + "}", None, True)
@example('{"strands": ' + "[" * 100000, None, True)
@example("strands 1\nframings 0\n", "[" + "9" * 5000 + "]", False)
@example("strands 1\nframings 0\n", "[" * 100000, True)
@example("strands 1\nframings 0\n",
         '[{"move": "rolfsen_twist", "component": 1, "twists": 1000000000}]', True)
@settings(max_examples=300, deadline=None)
def test_surgery_input_boundary(diagram, moves, as_json):
    code, err = run_surgery(diagram, moves, as_json)
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    else:
        assert code in (0, 1)


# Input-boundary property of ``embed``, ``certify-s4`` and ``pi1``: arbitrary
# text and JSON word files and presentations, on small pages and on a few
# past MAX_PAGE_HOLES. Every run ends in exit 2 with one error line, or in
# exit 0 or 1 with a JSON report and nothing on stderr.
def check_input_boundary(argv: list[str], files: dict[str, str]) -> None:
    code, out, err = run_with_files(argv + ["--json", "--no-timestamp"], files)
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    else:
        assert code in (0, 1) and err == ""
        json.loads(out)


holes = st.lists(st.integers(-1, 9), max_size=4).map(lambda c: ",".join(map(str, c)))
word_tokens = st.one_of(
    st.builds("T{{{}}}^{}".format, holes, st.integers(-3, 3)),
    st.builds("P{{{}|{}}}".format, st.integers(-1, 9), holes),
    st.sampled_from(["T{1}", "P{2|1}", "P{4|3}^1", "T{}", "P{2|}", "T{1}^x", "T{1..3}",
                     "T{1}^" + "9" * 5000, "\u0663"]),
)
text_words = st.text(max_size=40) | st.lists(word_tokens, max_size=10).map(" ".join)
json_letters = st.fixed_dictionaries({}, optional={
    "op": st.sampled_from(["twist", "push"]) | small_json,
    "curve": st.lists(st.integers(-1, 9), max_size=4) | small_json,
    "boundary": st.integers(-1, 9) | small_json,
    "around": st.lists(st.integers(-1, 9), max_size=4) | small_json,
    "exp": st.integers(-3, 3) | small_json,
})
json_words = st.one_of(
    st.lists(json_letters | small_json, max_size=6),
    st.fixed_dictionaries({"letters": st.lists(json_letters, max_size=6) | small_json}),
    small_json,
).map(json.dumps)
pages = st.integers(-1, 8) | st.sampled_from([MAX_PAGE_HOLES, MAX_PAGE_HOLES + 1, 10**30])


@given(st.sampled_from(["embed", "certify-s4"]), pages, text_words | json_words)
@example("embed", 10**7, "T{1}")
@example("certify-s4", 2 * 10**6, "T{1}")
@example("certify-s4", MAX_PAGE_HOLES, "T{1}")
@example("embed", 2, "[" * 100000)
@settings(max_examples=300, deadline=None)
def test_word_input_boundary(command, page, word):
    check_input_boundary([command, "--page", str(page), "--word", "w"], {"w": word})


relator_lines = st.lists(st.sampled_from(["x1", "X1", "x2", "X2", "x0", "x", "y1", "x9"]),
                         max_size=6).map("".join)
presentations = st.text(max_size=40) | st.lists(
    relator_lines | st.integers(-1, 4).map("gens {}".format)
    | st.sampled_from(["gens", "gens x", "gens 2 3", "# note", ""]),
    max_size=5).map("\n".join)


@given(presentations)
@example("gens 1\nx" + "9" * 5000)
@example("gens " + "9" * 5000)
@settings(max_examples=200, deadline=None)
def test_presentation_input_boundary(text):
    check_input_boundary(["pi1", "g"], {"g": text})


@pytest.mark.parametrize("name, word", [
    ("w.txt", "T{2..4}"),
    ("w.txt", "P{1|2..4}"),
    ("w.json", '[{"op": "twist", "curve": [[2, 4]]}]'),
    ("w.json", '[{"op": "push", "boundary": 1, "around": [[2, 4]]}]'),
], ids=["text-twist", "text-push", "json-twist", "json-push"])
def test_twists_and_pushes_word_an_off_page_curve_alike(tmp_path, monkeypatch, capsys, name, word):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(word)
    assert run(capsys, "embed", "--page", "3", "--word", name) == (
        2, "", "error: curve {2..4} does not fit on a page with 3 inner boundaries\n")
