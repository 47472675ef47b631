"""Independent oracle: checks each job's exit status and report.

Every check recomputes its answer from the generated input with this
file's own exact arithmetic; nothing here imports spuncalc. ``check``
returns None for a correct output and a one-line reason otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, prod


def cf_value(coefficients: list[int]) -> Fraction:
    """a_1 - 1/(a_2 - 1/(...)), evaluated right to left."""
    num, den = coefficients[-1], 1
    for a in reversed(coefficients[:-1]):
        num, den = a * num - den, num
    return Fraction(num, den)


def exact_det_rank(rows: list[list[int]]) -> tuple[int, int]:
    """Determinant (0 unless square and full rank) and rank, by fraction-free
    (Bareiss) elimination; a column without a pivot is skipped."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    sign, prev, rank = 1, 1, 0
    for col in range(nc):
        pivot = next((r for r in range(rank, nr) if m[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        p = m[rank][col]
        for r in range(rank + 1, nr):
            factor = m[r][col]
            row, top = m[r], m[rank]
            for c in range(col + 1, nc):
                row[c] = (row[c] * p - factor * top[c]) // prev
            row[col] = 0
        prev = p
        rank += 1
    det = sign * prev if nr == nc == rank else 0
    if nr == nc == 0:
        det = 1
    return det, rank


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b == g == gcd(a, b) >= 0, and y == 0 when a divides b."""
    if a and b % a == 0:
        return abs(a), (1 if a > 0 else -1), 0
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _diagonal(m: list[list[int]], modulus: int) -> list[int]:
    """Diagonalise m in place by unimodular row and column operations, each
    pair of lines combined through the extended gcd; entries are reduced
    mod ``modulus`` when it is nonzero. Returns the diagonal entries found
    before the remaining block is zero."""
    reduce = (lambda x: x % modulus) if modulus else (lambda x: x)
    nr, nc = len(m), len(m[0]) if m else 0
    diag = []
    for t in range(min(nr, nc)):
        pos = next(((i, j) for i in range(t, nr) for j in range(t, nc) if m[i][j]), None)
        if pos is None:
            break
        m[t], m[pos[0]] = m[pos[0]], m[t]
        for row in m:
            row[t], row[pos[1]] = row[pos[1]], row[t]
        while True:
            for i in range(t + 1, nr):
                b = m[i][t]
                if b:
                    g, x, y = _egcd(m[t][t], b)
                    a = m[t][t]
                    top, low = m[t], m[i]
                    m[t] = [reduce(x * u + y * v) for u, v in zip(top, low)]
                    m[i] = [reduce(b // g * u - a // g * v) for u, v in zip(top, low)]
            if not any(m[t][t + 1:]):
                break
            for j in range(t + 1, nc):
                b = m[t][j]
                if b:
                    g, x, y = _egcd(m[t][t], b)
                    a = m[t][t]
                    for row in m:
                        u, v = row[t], row[j]
                        row[t], row[j] = reduce(x * u + y * v), reduce(b // g * u - a // g * v)
            if not any(m[i][t] for i in range(t + 1, nr)):
                break
        diag.append(m[t][t])
    return diag


def invariant_factors(rows: list[list[int]], columns: int) -> tuple[list[int], int]:
    """Invariant factors above 1, in divisibility order, and free rank of
    Z^columns / rowspace(rows). For a nonsingular square matrix the row
    lattice contains |det| Z^n, so the work runs mod |det| and entries stay
    below it."""
    det, rank = exact_det_rank(rows) if rows else (0, 0)
    modulus = abs(det) if len(rows) == columns and det else 0
    m = [[x % modulus if modulus else x for x in r] for r in rows]
    diag = _diagonal(m, modulus)
    if modulus:
        orders = [gcd(d, modulus) for d in diag] + [modulus] * (columns - len(diag))
    else:
        orders = [abs(d) for d in diag]
    # a direct sum of cyclic groups in divisibility order
    for i in range(len(orders)):
        for j in range(i + 1, len(orders)):
            g = gcd(orders[i], orders[j])
            orders[i], orders[j] = g, orders[i] // g * orders[j]
    return [d for d in orders if d > 1], columns - rank


def _h1_problem(h1: dict, rows: list[list[int]], columns: int) -> str | None:
    factors, free_rank = invariant_factors(rows, columns)
    if h1["free_rank"] != free_rank:
        return f"free rank {h1['free_rank']} != {free_rank}"
    if h1["factors"] != factors:
        return f"invariant factors {h1['factors']} != {factors}"
    return None


def linking_rows(diagram: dict) -> list[list[int]]:
    """Framings on the diagonal, net linking numbers off it."""
    n = diagram["strands"]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = diagram["framings"][i]
    for i, j, e in diagram["braid"]:
        rows[i - 1][j - 1] += e
        rows[j - 1][i - 1] += e
    return rows


def _one_error_line(err: str) -> bool:
    return len(err.strip("\n").split("\n")) == 1 and err.strip() != ""


def _check_lens(job, status, report) -> str | None:
    if status != "exit:0":
        return f"status {status}"
    p, q = job.expect["p"], job.expect["q"]
    out = report["outputs"]
    cf = out["cf"]
    if not cf or any(a > -2 for a in cf):
        return "continued fraction has a coefficient above -2"
    if cf_value(cf) != Fraction(-p, q):
        return "continued fraction does not evaluate to -p/q"
    if abs(out["plumbing_det"]) != p or abs(out["slid_det"]) != p:
        return "a determinant's absolute value differs from p"
    target = out["target"]
    all_even = all(a % 2 == 0 for a in cf)
    if target["trivial"] + target["twisted"] + target["s1xs"] != len(cf):
        return f"target has {target['trivial'] + target['twisted']} summands, expected {len(cf)}"
    if (target["twisted"] == 0) != all_even or out["spin"] != all_even:
        return "spin flag disagrees with the coefficient parities"
    return None


def _check_surgery(job, status, report) -> str | None:
    if status != "exit:0":
        return f"status {status}"
    out = report["outputs"]
    d = job.expect["diagram"]
    initial = out["initial"]
    if (initial["strands"], initial["framings"], initial["braid"]) != (
            d["strands"], d["framings"], d["braid"]):
        return "initial diagram differs from the input"
    if len(out["moves"]) != job.expect["moves"] or not all(
            m["h1_preserved"] for m in out["moves"]):
        return "a move did not preserve H1"
    # blow-up, twist and blow-down preserve H1: the reported group must be
    # that of the input diagram, and the reported final diagram must have it
    problem = _h1_problem(out["h1"], linking_rows(d), d["strands"])
    if problem:
        return problem
    final = out["final"]
    rows = linking_rows(final)
    det, rank = exact_det_rank(rows)
    n = final["strands"]
    if n - rank != out["h1"]["free_rank"] or (det and abs(det) != prod(out["h1"]["factors"])):
        return "final diagram's linking matrix does not present the reported H1"
    parity = [f % 2 for f in final["framings"]]
    for i, j, e in final["braid"]:
        parity[i - 1] ^= e & 1
        parity[j - 1] ^= e & 1
    if out["open_book"]["parity"] != parity:
        return "open-book parity differs from framing plus incident letters mod 2"
    return None


def _check_embed(job, status, report) -> str | None:
    if status != "exit:0":
        return f"status {status}"
    holes = job.expect["holes"]
    parity = [0] * holes
    for curve, e in job.expect["word"]:
        for i in curve:
            parity[i - 1] ^= e & 1
    out = report["outputs"]
    even = parity.count(0)
    if out["parity"] != parity:
        return "parity vector differs from the generated letters"
    raw = out["raw"]
    if (raw["trivial"], raw["twisted"], raw["s1xs"]) != (even, holes - even, 0):
        return f"raw counts {raw} differ from ({even}, {holes - even})"
    return None


def _check_certify(job, status, report) -> str | None:
    parity = [0] * job.expect["pairs"]
    for curve, e in job.expect["twists"]:
        for a in curve:
            parity[(a - 1) // 2] ^= e & 1
    certified = all(parity)
    if status != ("exit:0" if certified else "exit:1"):
        return f"status {status} but certified={certified}"
    if report["outputs"]["a_parities"] != parity:
        return "a-parities differ from the generated letters"
    return None


def _free_reduce(word: list[int]) -> list[int]:
    stack: list[int] = []
    for x in word:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return stack


def _word_text(word: list[int]) -> str:
    return "".join(("x" if x > 0 else "X") + str(abs(x)) for x in word)


def _check_pi1(job, status, report) -> str | None:
    if status != "exit:0":
        return f"status {status}"
    out = report["outputs"]
    g = job.expect["generators"]
    relators = job.expect["relators"]
    if out["recovered"]["generators"] != g or out["recovered"]["relators"] != [
            _word_text(_free_reduce(r)) for r in relators]:
        return "recovered relators differ from the freely reduced input"
    rows = [[0] * g for _ in relators]
    for row, r in zip(rows, relators):
        for x in r:
            row[abs(x) - 1] += 1 if x > 0 else -1
    return _h1_problem(out["abelianization"], rows, g)


def _check_corpus(job, status, report) -> str | None:
    out = report["outputs"]
    if status != "exit:0" or (out["passed"], out["total"]) != (31, 31):
        return f"status {status}, {out['passed']}/{out['total']} corpus cases"
    return None


_REPORT_CHECKS = {
    "lens": _check_lens,
    "surgery": _check_surgery,
    "embed": _check_embed,
    "certify-s4": _check_certify,
    "pi1": _check_pi1,
    "corpus": _check_corpus,
}


def check(job, status: str, out: str, err: str) -> str | None:
    """None when the job's exit status and output are right, else why not."""
    if job.kind == "malformed":
        if status != "exit:2" or not _one_error_line(err):
            return f"{job.expect['case']}: status {status}, expected exit 2 with one error line"
        return None
    if status.startswith("raise:"):
        return f"raised {status[6:]}"
    try:
        report = json.loads(out)
        return _REPORT_CHECKS[job.kind](job, status, report)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}"
