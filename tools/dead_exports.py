#!/usr/bin/env python3
"""Fail on library exports that no other module uses.

Every top-level `val` of a `lib/*/*.mli` must be referred to by some `.ml`
file under lib/, bin/, bench/, perfbench/ or examples/ other than the
module's own implementation. Tests do not count: an export that only tests
call is listed, with a one-line reason, in dead_exports.allow next to this
script. A reference counts when it is qualified (`Mod.v`, `Lib.Mod.v`),
goes through a module alias (`module X = Lib.Mod` ... `X.v`), or is a bare
`v` in the scope of `open Mod`, `let open Mod in`, `include Mod` or
`Mod.( ... )`. Comments and string literals are ignored.

The scan also fails on a stale allowlist entry: one whose value is now
used, or no longer exported.

Usage: python3 tools/dead_exports.py (from any directory; exit 1 on a problem)
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = Path(__file__).resolve().parent / "dead_exports.allow"
USER_DIRS = ["lib", "bin", "bench", "perfbench", "examples"]

CHAR_LITERAL = re.compile(
    r"'(?:\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3})|[^\\'\n])'")
QUOTED_OPEN = re.compile(r"\{([a-z_]*)\|")


def strip(src):
    """Blank out comments, string and char literals, keeping line breaks
    so that offsets still map to the same lines."""
    out = []
    i, n, depth = 0, len(src), 0

    def blank(s):
        out.append(re.sub(r"[^\n]", " ", s))

    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            blank("(*")
            i += 2
        elif depth and src.startswith("*)", i):
            depth -= 1
            blank("*)")
            i += 2
        elif c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            blank(src[i:j + 1])
            i = j + 1
        elif c == "{" and QUOTED_OPEN.match(src, i):
            tag = QUOTED_OPEN.match(src, i).group(1)
            j = src.find("|" + tag + "}", i + 1)
            j = n if j < 0 else j + len(tag) + 2
            blank(src[i:j])
            i = j
        elif c == "'" and CHAR_LITERAL.match(src, i) and (
                i == 0 or not (src[i - 1].isalnum() or src[i - 1] == "_")):
            m = CHAR_LITERAL.match(src, i)
            blank(m.group(0))
            i = m.end()
        else:
            (blank if depth else out.append)(c)
            i += 1
    return "".join(out)


WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
OPENERS = {"sig", "struct", "object", "begin"}


def top_level_vals(mli):
    """(name, line) of each `val` outside any nested signature."""
    text = strip(mli.read_text())
    vals, depth, expect_name = [], 0, False
    for m in WORD.finditer(text):
        w = m.group(0)
        if expect_name:
            vals.append((w, text.count("\n", 0, m.start()) + 1))
            expect_name = False
        elif w in OPENERS:
            depth += 1
        elif w == "end":
            depth -= 1
        elif w == "val" and depth == 0:
            expect_name = True
    return vals


def balanced(text, start):
    """End offset of the bracket group opening at text[start]."""
    pairs = {"(": ")", "[": "]", "{": "}"}
    stack = []
    for j in range(start, len(text)):
        if text[j] in pairs:
            stack.append(pairs[text[j]])
        elif stack and text[j] == stack[-1]:
            stack.pop()
            if not stack:
                return j + 1
    return len(text)


def path_to(mod):
    """A module path ending in [mod], not followed by a projection."""
    return r"(?:[A-Z]\w*\.)*" + mod + r"\b(?!\s*\.)"


def scopes(text, mod):
    """Qualifiers naming [mod] in [text], and the spans where its values
    are in scope unqualified."""
    quals = {mod}
    for m in re.finditer(r"\bmodule\s+([A-Z]\w*)\s*=\s*" + path_to(mod),
                         text):
        quals.add(m.group(1))
    spans = []
    for q in quals:
        for m in re.finditer(r"\b(?:open!?|include)\s+" + path_to(q), text):
            spans.append((m.end(), len(text)))
        for m in re.finditer(r"\b" + q + r"\s*\.\s*([(\[{])", text):
            spans.append((m.start(1), balanced(text, m.start(1))))
    return quals, spans


def main():
    exports = {}  # (Mod, v) -> (mli, line)
    names = {}  # Mod -> [v]
    own = {}  # Mod -> its own implementation
    for mli in sorted(ROOT.glob("lib/*/*.mli")):
        mod = mli.stem.capitalize()
        own[mod] = mli.with_suffix(".ml")
        for v, line in top_level_vals(mli):
            exports[(mod, v)] = (mli, line)
            names.setdefault(mod, []).append(v)

    sources = []
    for d in USER_DIRS:
        for ml in sorted((ROOT / d).rglob("*.ml")):
            sources.append((ml, strip(ml.read_text())))

    used = set()
    for ml, text in sources:
        for mod, vals in names.items():
            # Every form of reference spells the module's name somewhere.
            if ml == own[mod] or mod not in text:
                continue
            quals, spans = scopes(text, mod)
            alt = "(" + "|".join(map(re.escape, vals)) + r")(?![\w'])"
            qualified = re.compile(
                r"\b(?:" + "|".join(quals) + r")\s*\.\s*" + alt)
            used.update((mod, v) for v in qualified.findall(text))
            bare = re.compile(r"(?<![\w.'~?])" + alt)
            for a, b in spans:
                used.update((mod, v) for v in bare.findall(text, a, b))

    allowed, problems = set(), []
    for i, raw in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, reason = line.partition(" ")
        mod, _, v = key.partition(".")
        where = f"{ALLOWLIST.relative_to(ROOT)}:{i}"
        if not reason.strip():
            problems.append(f"{where}: {key} has no reason")
        if (mod, v) not in exports:
            problems.append(f"{where}: stale entry, {key} is not exported")
        elif (mod, v) in used:
            problems.append(f"{where}: stale entry, {key} is now used")
        allowed.add((mod, v))

    for (mod, v), (mli, line) in exports.items():
        if (mod, v) not in used and (mod, v) not in allowed:
            problems.append(f"{mli.relative_to(ROOT)}:{line}: {mod}.{v} is "
                            "exported but no other module uses it")

    for p in problems:
        print(p)
    print(f"{len(exports)} exports, {len(exports) - len(used)} unused "
          f"outside tests, {len(allowed)} allowlisted, "
          f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
