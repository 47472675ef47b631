"""CLI behavior: exit codes, JSON stability, corpus replay."""

import hashlib
import json

import pytest

from spuncalc import corpus
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


@pytest.mark.parametrize("argv, files", [
    (["surgery", "d.txt"], {"d.txt": "strands 2\nframings -1 -2\nA 1\n"}),
    (["surgery", "d.txt"], {"d.txt": "strands x\nframings -1\n"}),
    (["surgery", "d.txt", "--moves", "m.json"],
     {"d.txt": "strands 2\nframings -4 -2\nA 1 2 +1\n",
      "m.json": json.dumps([{"move": "blow_up", "sign": 1}])}),
    (["embed", "--page", "3", "--word", "w.json"], {"w.json": '[{"op": "twist", "curve": [1]'}),
    (["embed", "--page", "3", "--word", "w.json"], {"w.json": "[1, 2]"}),
    (["pi1", "g.txt", "--fuzz", "-5"], {"g.txt": "gens 2\nx1x2X1X2\n"}),
], ids=["truncated-letter", "non-integer-strands", "move-missing-key", "malformed-json",
        "non-object-letter", "negative-fuzz"])
def test_malformed_input_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys, argv, files):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out, err = run(capsys, *argv, "--json", "--no-timestamp")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


README_FILES = {
    "word.txt": "T{1}^3 T{1,2}^3 T{2}^2\n",
    "cert.txt": "T{1}^4 T{1} P{2|1}\n",
    "diagram.txt": "strands 2\nframings -4 -2\nA 1 2 +1\n",
    "moves.json": '[{"move":"blow_up","region":[1,2],"sign":1},\n'
                  '        {"move":"blow_down","component":3}]\n',
}


# SHA-256 of the whole byte-stable report. Report bytes are part of the
# interface: a refactor keeps them, and a deliberate change updates the
# digest together with a CHANGES.md entry saying why.
@pytest.mark.parametrize("argv, digest", [
    (["lens", "7", "2"], "927043d63a54fb3e83b46ea9e9218dadb0db4249d68e0ec1f12939536a5bcb2a"),
    (["lens", "40", "39"], "c81340e1ddbc97122ff964c8a9d9eaa247fe44953b447d38cd6d411323f63950"),
    (["surgery", "diagram.txt", "--moves", "moves.json"],
     "27ccd5a86887b961adafc99f81ef954e3d686fe71c6cd4459e4f05f6fc9a9a61"),
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
