"""Reference values and output checks for the fpmom benchmark.

Nothing here imports fpmom: every expected value comes from the bench's
own arithmetic, so a defect in the timed code cannot also hide in its
check.  Two independent sources are used.

* Scalar moments tr(G^2k) come from Kesten's return generating function
  for the 2N-regular tree (Kesten, "Symmetric random walks on groups",
  Trans. AMS 1959).  With q = 2N - 1 and x = z^2,

      F(x) = 2q / (q - 1 + (q + 1) sqrt(1 - 4qx)).

  Rationalising the denominator gives
  2((q+1)^2 x - 1) F = (q - 1) - (q + 1) sqrt(1 - 4qx), and since
  sqrt(1 - 4y) = 1 - 2 sum_k Cat(k-1) y^k, comparing coefficients yields

      a_0 = 1,   a_k = (2N)^2 a_(k-1) - 2N Cat(k-1) q^k,

  which costs O(1) big-int operations per order.

* Radial coefficients c_m(n) of G^n (the coefficient of any one reduced
  word of length m) come from a distance DP: W_n[d] counts walks of
  length n on the tree that end at distance d from the root, and
  c_m(n) = W_n[m] / |S_m| with |S_m| = 2N (2N-1)^(m-1).  Amalgamated
  moments read c_m(n) at the multiples m of 2N.
"""

from __future__ import annotations

import hashlib
import json

__all__ = [
    "kesten_moments",
    "sphere_size",
    "walk_rows",
    "walk_row",
    "radial_coefficients",
    "render_series",
    "render_xdecomp",
    "verify_subjects",
    "amalgamated_value",
    "Checker",
]


def kesten_moments(rank: int, max_half_order: int) -> list[int]:
    """[tr(G^0), tr(G^2), ..., tr(G^(2 * max_half_order))] by Kesten's formula."""
    two_n = 2 * rank
    q = two_n - 1
    values = [1]
    catalan = 1  # Cat(k - 1)
    q_power = 1
    for k in range(1, max_half_order + 1):
        q_power *= q
        values.append(two_n * two_n * values[-1] - two_n * catalan * q_power)
        catalan = catalan * 2 * (2 * k - 1) // (k + 1)
    return values


def sphere_size(length: int, rank: int) -> int:
    """Number of reduced words of the given length."""
    if length == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (length - 1)


def walk_rows(rank: int, max_steps: int):
    """Yield (n, row) for n = 1..max_steps; row[i] = W_n[n % 2 + 2 i].

    Only distances of the parity of n can be reached, so a row stores
    those alone, lowest distance first.
    """
    two_n = 2 * rank
    q = two_n - 1
    row = [1]  # n = 0: the walk stays at the root
    for n in range(1, max_steps + 1):
        if n % 2:  # previous row held distances 0, 2, ..., n - 1
            up = [row[0] * two_n] + [c * q for c in row[1:]]
            row = [u + d for u, d in zip(up, row[1:] + [0])]
        else:  # previous row held distances 1, 3, ..., n - 1
            row = [row[0]] + [a * q + b for a, b in zip(row, row[1:])] + [row[-1] * q]
        yield n, row


def walk_row(rank: int, n: int) -> list[int]:
    """Row n of the distance DP (n >= 1)."""
    for _, row in walk_rows(rank, n):
        pass
    return row


def radial_coefficients(rank: int, n: int, row: list[int]) -> dict[int, int]:
    """c_m(n) for every reachable class m, from one row of the distance DP."""
    coeffs = {}
    for i, count in enumerate(row):
        m = n % 2 + 2 * i
        c, rem = divmod(count, sphere_size(m, rank))
        if rem:
            raise ArithmeticError(f"walk count at distance {m} is not radial")
        coeffs[m] = c
    return coeffs


# --- the CLI's documented output formats, rendered from reference values ---


def _json_line(payload) -> bytes:
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def _laurent_cell_tex(poly: dict[int, int]) -> str:
    if not poly:
        return "0"
    parts = []
    for k in sorted(poly, reverse=True):
        c = poly[k]
        base = "" if k == 0 else ("h" if k == 1 else f"h^{{{k}}}")
        if not base:
            term = str(abs(c))
        elif abs(c) == 1:
            term = base
        else:
            term = f"{abs(c)}{base}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def render_series(kind: str, rank: int, values: list, fmt: str, tool_version: str) -> bytes:
    """Bytes of `fpmom scalar|amalg` for values[n - 1] = moment of order n.

    Scalar values are ints; amalgamated values are {exponent: coeff} dicts.
    """
    scalar = kind == "scalar"
    if fmt == "json":
        entries = [
            {
                "n": n,
                "value": str(v) if scalar
                else [{"exp": k, "coeff": str(c)} for k, c in sorted(v.items())],
            }
            for n, v in enumerate(values, 1)
        ]
        return _json_line({
            "rank": rank,
            "kind": kind,
            "max_order": len(values),
            "provenance": "recurrence",
            "tool_version": tool_version,
            "entries": entries,
        })
    if fmt == "csv":
        lines = ["n,value"]
        for n, v in enumerate(values, 1):
            cell = str(v) if scalar else ";".join(f"{k}:{c}" for k, c in sorted(v.items()))
            lines.append(f"{n},{cell}")
    else:
        lines = [r"\begin{tabular}{rl}", r"\hline", r"$n$ & moment \\", r"\hline"]
        for n, v in enumerate(values, 1):
            cell = str(v) if scalar else _laurent_cell_tex(v)
            lines.append(f"${n}$ & ${cell}$ \\\\")
        lines += [r"\hline", r"\end{tabular}"]
    return ("\n".join(lines) + "\n").encode("utf-8")


def render_xdecomp(rank: int, power: int, coeffs: dict[int, int], fmt: str) -> bytes:
    rows = sorted(coeffs.items(), reverse=True)
    if fmt == "json":
        return _json_line({
            "rank": rank,
            "power": power,
            "coeffs": [{"m": m, "coeff": str(c)} for m, c in rows],
        })
    lines = ["m,coefficient"] + [f"{m},{c}" for m, c in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def verify_subjects(rank: int, max_order: int, oracle: str) -> list[str]:
    """Subjects of the reports `fpmom verify --oracle tree|both` prints (rank >= 2)."""
    subjects = [f"scalar moments (rank {rank}, orders 1..{max_order})"]
    if oracle == "both":
        letters = "".join(chr(96 + i) for i in range(1, rank + 1))
        subjects.append(
            f"amalgamated moments (rank {rank}, subgroup <{letters}{letters.upper()}>, "
            f"orders 1..{max_order})"
        )
        subjects.append(f"radiality of powers (rank {rank}, orders 1..{max_order})")
    return subjects


def amalgamated_value(rank: int, coeffs: dict[int, int]) -> dict[int, int]:
    """E(G^n) as {exponent: coeff}: classes at multiples of 2N, mirrored."""
    period = 2 * rank
    poly = {}
    for m, c in coeffs.items():
        if m % period == 0:
            poly[m // period] = c
            poly[-(m // period)] = c
    return poly


def _parse_compact_word(text: str, rank: int) -> tuple[int, ...]:
    """Signed generator codes of a word printed in the compact grammar."""
    if text == "e":
        return ()
    if text == "g5":  # the lone fifth generator, which would print as "e"
        return (5,)
    codes = []
    for ch in text:
        code = ord(ch) - 96 if ch.islower() else -(ord(ch) - 64)
        if not 1 <= abs(code) <= rank:
            raise ValueError(f"letter {ch!r} is outside rank {rank}")
        if codes and codes[-1] == -code:
            raise ValueError(f"word {text!r} is not reduced")
        codes.append(code)
    return tuple(codes)


def _word_order(codes: tuple[int, ...]) -> tuple:
    return len(codes), tuple((abs(c), 0 if c > 0 else 1) for c in codes)


class Checker:
    """Decides whether a job's exit code and output bytes are right.

    ``check`` returns a failure reason, or None.  Jobs whose reference
    needs the distance DP far out (amalg, xdecomp) are only fingerprinted
    there; ``finish`` then runs one DP pass per rank and returns the
    reasons for those that mismatch.
    """

    def __init__(self, tool_version: str):
        self.tool_version = tool_version
        self._kesten: dict[int, list[int]] = {}
        self._deferred: list[tuple[object, str, int]] = []

    def scalar_moments(self, rank: int, max_order: int) -> list[int]:
        """tr(G^n) for n = 1..max_order."""
        cached = self._kesten.get(rank, [])
        if len(cached) <= max_order // 2:
            cached = self._kesten[rank] = kesten_moments(rank, max_order // 2)
        return [0 if n % 2 else cached[n // 2] for n in range(1, max_order + 1)]

    def check(self, job, rc, output: bytes):
        if rc != 0:
            return f"exit code {rc}, expected 0"
        if job.kind == "scalar":
            want = render_series(
                "scalar", job.rank, self.scalar_moments(job.rank, job.order), job.fmt,
                self.tool_version,
            )
            return None if output == want else "scalar output differs from Kesten's values"
        if job.kind == "verify":
            try:
                reports = [json.loads(line) for line in output.decode("utf-8").splitlines()]
                subjects = [r["subject"] for r in reports]
                passed = all(r["verdict"] == "pass" and not r["mismatches"] for r in reports)
            except (ValueError, KeyError, TypeError) as exc:
                return f"verify output unreadable: {exc!r}"[:300]
            if subjects != verify_subjects(job.rank, job.order, job.oracle):
                return f"verify reports on {subjects}, not on the requested checks"[:300]
            return None if passed else "verify reports a failure"
        if job.kind == "expand":
            try:
                return self._check_expand(job, output)
            except (ValueError, KeyError, TypeError) as exc:  # malformed output
                return f"expand output unreadable: {exc!r}"[:300]
        self._deferred.append((job, hashlib.sha256(output).hexdigest(), len(output)))
        return None

    def _check_expand(self, job, output: bytes):
        rank, n = job.rank, job.order
        payload = json.loads(output)
        if _json_line(payload) != output:
            return "expand output is not compact canonical JSON"
        if payload.get("rank") != rank:
            return f"expand rank {payload.get('rank')}, expected {rank}"
        terms = payload["terms"]
        support = sum(sphere_size(m, rank) for m in range(n % 2, n + 1, 2))
        if len(terms) != support:
            return f"expand support {len(terms)}, expected {support}"
        previous = None
        by_length: dict[int, int] = {}
        augmentation = 0
        trace = 0
        for term in terms:
            codes = _parse_compact_word(term["word"], rank)
            key = _word_order(codes)
            if previous is not None and key <= previous:
                return f"expand words out of canonical order at {term['word']!r}"
            previous = key
            c = int(term["coeff"])
            if by_length.setdefault(len(codes), c) != c:
                return f"coefficient not constant on length {len(codes)}"
            augmentation += c
            if not codes:
                trace = c
        if augmentation != (2 * rank) ** n:
            return f"augmentation {augmentation}, expected (2N)^n = {(2 * rank) ** n}"
        if trace != self.scalar_moments(rank, n)[-1]:
            return f"trace {trace} differs from Kesten's value"
        if by_length != radial_coefficients(rank, n, walk_row(rank, n)):
            return "per-length coefficients differ from the distance DP"
        return None

    def finish(self):
        """Check the fingerprinted jobs; return [(job, reason)] for mismatches."""
        failures = []
        by_rank: dict[int, list] = {}
        for entry in self._deferred:
            by_rank.setdefault(entry[0].rank, []).append(entry)
        self._deferred = []
        for rank, entries in sorted(by_rank.items()):
            top = max(job.order for job, _, _ in entries)
            amalg_top = max((job.order for job, _, _ in entries if job.kind == "amalg"), default=0)
            xdecomp_at: dict[int, list] = {}
            for entry in entries:
                if entry[0].kind == "xdecomp":
                    xdecomp_at.setdefault(entry[0].order, []).append(entry)
            amalg_values = []
            kesten = self.scalar_moments(rank, top)
            for n, row in walk_rows(rank, top):
                if n % 2 == 0 and row[0] != kesten[n - 1]:
                    raise ArithmeticError(f"distance DP disagrees with Kesten at order {n}")
                if n > amalg_top and n not in xdecomp_at:
                    continue
                coeffs = radial_coefficients(rank, n, row)
                if n <= amalg_top:
                    amalg_values.append(amalgamated_value(rank, coeffs))
                for job, digest, size in xdecomp_at.get(n, ()):
                    want = render_xdecomp(rank, n, coeffs, job.fmt)
                    if (hashlib.sha256(want).hexdigest(), len(want)) != (digest, size):
                        failures.append((job, "xdecomp output differs from the distance DP"))
            for job, digest, size in entries:
                if job.kind != "amalg":
                    continue
                want = render_series(
                    "amalgamated", rank, amalg_values[: job.order], job.fmt, self.tool_version
                )
                if (hashlib.sha256(want).hexdigest(), len(want)) != (digest, size):
                    failures.append((job, "amalg output differs from the distance DP"))
        return failures
