"""CLI behavior: exit codes, JSON stability, corpus replay."""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spuncalc import cli, corpus, homology, lens
from spuncalc.cli import main


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
    (["embed", "--page", "3", "--word", "w.json"], {"w.json": '{"letters": 5}'}, "letters"),
    (["embed", "--page", "3", "--word", "w.json"], {"w.json": '{"letters": null}'}, "letters"),
    (["embed", "--page", "3", "--word", "w.txt"], {"w.txt": b"T{1}\xff\n"}, "decode"),
    (["pi1", "g.txt"], {"g.txt": b"gens 1\n\xe9\n"}, "decode"),
    (["surgery", "d.txt"], {"d.txt": b"strands 1\nframings \xff\n"}, "decode"),
    (["surgery", "d.txt"], {"d.txt": None}, "Is a directory"),
    (["embed", "--page", "2", "--word", "w.txt"], {"w.txt": "T{1}^" + "9" * 5000}, "too long"),
    (["pi1", "g.txt"], {"g.txt": "gens 1\nx" + "9" * 5000 + "\n"}, "digits"),
], ids=["truncated-letter", "non-integer-strands", "move-missing-key", "malformed-json",
        "non-object-letter", "negative-fuzz", "move-region-not-integer",
        "move-twists-not-integer", "move-component-list", "moves-file-object",
        "json-diagram-no-strands", "json-diagram-strands-text", "json-diagram-two-field-letter",
        "json-diagram-sign-not-integer", "json-word-curve-not-integer",
        "json-word-exp-not-integer", "gens-not-integer", "json-diagram-framings-string",
        "json-diagram-strands-float", "json-diagram-framing-float", "json-word-curve-string-exp-float",
        "json-word-curve-string", "json-word-letters-number", "json-word-letters-null",
        "word-not-utf8", "presentation-not-utf8", "diagram-not-utf8", "diagram-is-directory",
        "word-exponent-too-long", "relator-index-too-long"])
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


README_FILES = {
    "word.txt": "T{1}^3 T{1,2}^3 T{2}^2\n",
    "cert.txt": "T{1}^4 T{1} P{2|1}\n",
    "diagram.txt": "strands 2\nframings -4 -2\nA 1 2 +1\n",
    "moves.json": '[{"move":"blow_up","region":[1,2],"sign":1},\n'
                  '        {"move":"blow_down","component":3}]\n',
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


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40) | st.floats()
    | st.text(),
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)),
    max_leaves=40,
)


@given(json_values)
@example({})
@example([])
@example(())
@example({"a": [], "b": {}, "c": ()})
@example([True, 1, False, 0, -10**30])
@example([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 5e-324])
@example({"\u00e9\x00\n\u2028": "\x1f\"\\\ud800"})
def test_report_writer_matches_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [{1, 2}, [object()], {"a": b"x"}, {1: 2}])
def test_report_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        cli._dumps(value)


# SHA-256 of the whole text report (no --json), under the same rule as the
# JSON report pins below.
@pytest.mark.parametrize("argv, digest", [
    (["lens", "7", "2"], "4272371c00ecda35ce1389dc5761e9406cc9a050df14325fca289fbb2db8c8d6"),
    (["surgery", "diagram.txt", "--moves", "moves.json"],
     "32fa94dbbc364d35fcedb034b799b9f5cd92929428b370784851b9ffbbbdf74f"),
], ids=["lens-7-2", "surgery-readme"])
def test_text_report_bytes_are_pinned(tmp_path, monkeypatch, capsys, argv, digest):
    monkeypatch.chdir(tmp_path)
    for name, text in README_FILES.items():
        (tmp_path / name).write_text(text)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the whole byte-stable report. Report bytes are part of the
# interface: a refactor keeps them, and a deliberate change updates the
# digest together with a CHANGES.md entry saying why.
@pytest.mark.parametrize("argv, digest", [
    (["lens", "7", "2"], "927043d63a54fb3e83b46ea9e9218dadb0db4249d68e0ec1f12939536a5bcb2a"),
    (["lens", "40", "39"], "c81340e1ddbc97122ff964c8a9d9eaa247fe44953b447d38cd6d411323f63950"),
    (["surgery", "diagram.txt", "--moves", "moves.json"],
     "eac0458683a4b07ea0178d41503d01dcbf7488f8648ad2ef9eb4ac989057986a"),
    (["embed", "--page", "2", "--word", "word.txt"],
     "ad64053a5e94fca545b28f025d087a601da34f3d26c2762c9cbd51a55af7ddd5"),
    (["certify-s4", "--page", "2", "--word", "cert.txt"],
     "0ff401266081f00f3279f4d4fb775d7dfd0ca427e343fb0f5b8daf2fce651319"),
    (["corpus", "run"], "a7db6bd836f9bcf0a4b63cd7ab42b9d46c1461d809a23071d5a7d1f09a01df4f"),
], ids=["lens-7-2", "lens-40-39", "surgery-readme", "embed-readme", "certify-s4-readme",
        "corpus-run"])
def test_json_report_bytes_are_pinned(tmp_path, monkeypatch, capsys, argv, digest):
    monkeypatch.chdir(tmp_path)
    for name, text in README_FILES.items():
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


def run_surgery(diagram: str, moves: str | None, as_json: bool) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["surgery", os.path.join(tmp, "d")]
        with open(argv[1], "w", encoding="utf-8", errors="surrogatepass") as f:
            f.write(diagram)
        if moves is not None:
            argv += ["--moves", os.path.join(tmp, "m.json")]
            with open(argv[-1], "w", encoding="utf-8") as f:
                f.write(moves)
        if as_json:
            argv += ["--json", "--no-timestamp"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


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
