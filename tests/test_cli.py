"""CLI behavior: exit codes, JSON stability, corpus replay."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spuncalc
from spuncalc import cli, corpus, homology, lens
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
    assert "[disagreement flagged]" in out


def test_lens_bad_input_exits_2(capsys):
    code, _, err = run(capsys, "lens", "4", "2")
    assert code == 2
    assert "coprime" in err


def test_lens_json_deterministic_without_timestamp(capsys):
    code, out1, _ = run(capsys, "lens", "8", "1", "--json", "--no-timestamp")
    assert code == 0
    _, out2, _ = run(capsys, "lens", "8", "1", "--json", "--no-timestamp")
    assert out1 == out2
    report = json.loads(out1)
    assert report["schema"] == "spuncalc-report/1"
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


def test_pi1_command(tmp_path, capsys):
    pres = tmp_path / "p.txt"
    pres.write_text("gens 1\nx1x1\n")
    code, out, _ = run(capsys, "pi1", str(pres), "--fuzz", "25")
    assert code == 0
    assert "Z/2" in out
    assert "pass" in out

    code, out, _ = run(capsys, "pi1", str(pres), "--json", "--no-timestamp")
    report = json.loads(out)
    assert report["outputs"]["abelianization"] == {"factors": [2], "free_rank": 0}
    assert report["outputs"]["recovered"]["relators"] == ["x1x1"]


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


def test_console_script_exits_141_quietly_on_a_closed_pipe():
    # ``spuncalc lens 500 499 | head -1``: the text report (about 500 KB) is
    # far larger than a pipe's buffer, so writing fails once the reader is gone
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(spuncalc.__file__))}
    proc = subprocess.Popen([sys.executable, "-m", "spuncalc.cli", "lens", "500", "499"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"L(500,499): ")
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
    assert results and all(r.passed for r in results)
    kinds = {corpus.load_fixture(n)["kind"] for n in corpus.fixture_names()}
    assert kinds == {"embed", "lens", "s4", "atoms", "surgery"}


# (fixture, case index, key path, mutated value, detail of the one FAIL):
# one mutated expectation per replayed kind, a pin the report does not
# carry, and a wrong exit code
REPLAY_MUTATIONS = [
    ("lens_spaces.json", 0, ["expect", "psi_parity"], [1], "psi_parity [0] != [1]"),
    ("embedding_targets.json", 0, ["expect", "raw", "trivial"], 9, "raw.trivial 1 != 9"),
    ("embedding_targets.json", 0, ["expect", "exponents"], [6, 5], "exponents missing"),
    ("sphere_certificates.json", 0, ["expect", "certified"], False, "certified True != False"),
    ("surgery_diagrams.json", 0, ["expect", "open_book", "parity"], [0],
     "open_book.parity [1] != [0]"),
    ("sphere_certificates.json", 0, ["exit"], 1, "exit 0 != 1"),
]


@pytest.mark.parametrize("name, index, keys, value, detail", REPLAY_MUTATIONS,
                         ids=["lens", "embed", "embed-missing-key", "s4", "surgery", "exit"])
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
    failed = [r for r in corpus.run_corpus() if not r.passed]
    assert [(r.file, r.detail) for r in failed] == [(name, detail)]
    code, out, _ = run(capsys, "corpus", "run")
    assert code == 1
    assert f"FAIL: {failed[0].name} ({detail})" in out.splitlines()


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
    (["pi1", "g.txt", "--fuzz", "-5"], {"g.txt": "gens 2\nx1x2X1X2\n"}, "--fuzz"),
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
    (["lens", "x", "2"], {}, "invalid int value"),
    (["frob"], {}, "invalid choice"),
    (["lens", "7", "2", "--bogus"], {}, "unrecognized arguments: --bogus"),
    (["embed", "--page", "2"], {}, "required: --word"),
    (["embed", "--page", "2", "--word", "w.json"],
     {"w.json": '[{"op":"twist","curve":[1]},{"op":"twist","curve":[true]}]'}, "integers"),
    (["embed", "--page", "2", "--word", "w.json"],
     {"w.json": '[{"op":"twist","curve":[1]},{"op":"twist","curve":[1.0]}]'}, "integers"),
], ids=["truncated-letter", "non-integer-strands", "move-missing-key", "malformed-json",
        "non-object-letter", "negative-fuzz", "move-region-not-integer",
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
        "argv-unknown-option", "argv-missing-option", "json-word-reused-curve-bool",
        "json-word-reused-curve-float"])
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


# inputs that repeat a value of 10^5 entries in their error; the line keeps
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
    (["pi1", "g.txt"], {"g.txt": "gens 1\n" + "x1" * 100_000 + "y\n"}, "cannot parse"),
    (["pi1", "g.txt"], {"g.txt": "gens 1 " + "2 " * 100_000 + "\n"}, "bad gens"),
    (["lens", "x" * 100_000, "2"], {}, "invalid int value"),
]


@pytest.mark.parametrize("argv, files, needle", OVERSIZED_INPUTS,
                         ids=["word-letter-list", "word-curve-off-page", "word-curve-float",
                              "word-token", "push-curve-off-page", "move-region-off-diagram",
                              "move-region-string", "diagram-line", "diagram-framing-string",
                              "relator", "gens-line", "argv-token"])
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


def test_surgery_computes_each_diagrams_h1_once(tmp_path, monkeypatch, capsys):
    # two moves make a chain of three diagrams: one Smith reduction each
    calls = []
    smith = homology.smith_diagonal

    def counting_smith(entries):
        calls.append(1)
        return smith(entries)

    monkeypatch.setattr(homology, "smith_diagonal", counting_smith)
    monkeypatch.chdir(tmp_path)
    for name, text in README_FILES.items():
        (tmp_path / name).write_text(text)
    code, _, _ = run(capsys, "surgery", "diagram.txt", "--moves", "moves.json",
                     "--json", "--no-timestamp")
    assert code == 0
    assert len(calls) == 3


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


def test_parser_state_does_not_leak_between_calls(tmp_path, monkeypatch, capsys):
    # the parser is built once per process; each call must still read as
    # if it had a parser of its own
    monkeypatch.chdir(tmp_path)
    for name, text in README_FILES.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "group.txt").write_text("gens 2\nx1x2X1X2\n")
    embed = ["embed", "--page", "2", "--word", "word.txt"]
    pi1 = ["pi1", "group.txt"]
    for first, second in [(embed + ["--raw"], embed), (embed, embed + ["--raw"]),
                          (pi1 + ["--fuzz", "2"], pi1), (pi1, pi1 + ["--fuzz", "2"])]:
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
    ["pi1", "group.txt", "--fuzz", "100"],
    ["corpus", "run"],
]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[argv[0] for argv in README_COMMANDS])
def test_json_report_is_one_compact_sorted_ascii_line(tmp_path, monkeypatch, capsys, argv):
    # the stdlib encoder's compact, key-sorted output is the whole contract
    monkeypatch.chdir(tmp_path)
    for name, text in {**README_FILES, "group.txt": "gens 2\nx1x2X1X2\n"}.items():
        (tmp_path / name).write_text(text)
    code, out, err = run(capsys, *argv, "--json", "--no-timestamp")
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"
    assert out.isascii() and out.count("\n") == 1


# SHA-256 of the whole text report (no --json), under the same rule as the
# JSON report pins below.
@pytest.mark.parametrize("argv, digest", [
    (["lens", "7", "2"], "4272371c00ecda35ce1389dc5761e9406cc9a050df14325fca289fbb2db8c8d6"),
    (["surgery", "diagram.txt", "--moves", "moves.json"],
     "32fa94dbbc364d35fcedb034b799b9f5cd92929428b370784851b9ffbbbdf74f"),
    (["embed", "--page", "4", "--word", "repeated.txt"],
     "f968eaf12159e8899ed19f7e8938fb88547cd57bfff74767c414b421232d92f5"),
    (["embed", "--page", "4", "--word", "repeated.json"],
     "c2775a386d6a67008afa88472c63f3d36f70a97a57d7d09193b91842a75c1aeb"),
    (["certify-s4", "--page", "4", "--word", "repeated-cert.txt"],
     "bf48621272e5dcc7e3f1dfffee65d8c9dd168ffa4e240a6aec311faf18c64fdf"),
], ids=["lens-7-2", "surgery-readme", "embed-repeated-text", "embed-repeated-json",
        "certify-s4-repeated"])
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
    (["lens", "7", "2"], "2ee2c47854f0a3a88e3958c97c0f798c9c430816ac38b172c514a5603bc6516b"),
    (["lens", "40", "39"], "fe139a93bbc5c12b76ae3ab58b199cbf3f2c9cd53ed00202b87706af6d7ec325"),
    (["surgery", "diagram.txt", "--moves", "moves.json"],
     "d93fe6196f281a29d68921e454e233e68f5625b57fec454ae7c235eff22fff0e"),
    (["embed", "--page", "2", "--word", "word.txt"],
     "9271ffe0f41bfeb6630ca6540216064871c0e99d3d72264510ad8b4bf287712e"),
    (["certify-s4", "--page", "2", "--word", "cert.txt"],
     "8cc8f80ac29aac3a80154c7a41a1c5bec0a624381479d829bf2bdd1321eef6ae"),
    (["corpus", "run"], "39ca0ef5b3b67b49e52ba7b85215605cae9ca327bed6609561387cb689b242dd"),
    (["embed", "--page", "4", "--word", "repeated.txt"],
     "a061aca0e8376a86af1fe8125ca052428e90ed5985224e7beda7e081515ec140"),
    (["embed", "--page", "4", "--word", "repeated.json"],
     "57d238f8c833043bfe4c7490915099feacbb32e364907068bfd821ee20e55c50"),
    (["certify-s4", "--page", "4", "--word", "repeated-cert.txt"],
     "e2117f8f73cc10e5e6524f3191a93b83076bcfc8098df34305db176cf9f8d7f4"),
], ids=["lens-7-2", "lens-40-39", "surgery-readme", "embed-readme", "certify-s4-readme",
        "corpus-run", "embed-repeated-text", "embed-repeated-json", "certify-s4-repeated"])
def test_json_report_bytes_are_pinned(tmp_path, monkeypatch, capsys, argv, digest):
    monkeypatch.chdir(tmp_path)
    for name, text in {**README_FILES, **REPEATED_FILES}.items():
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
