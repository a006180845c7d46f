#!/usr/bin/env python3
"""Lists the library functions no product path names.

    unreached.py

Run from anywhere inside the repo. It prints each `pub` or `pub(crate)`
fn or method defined under `crates/*/src` (the vendored `compat-*` crates
excluded) that no call site in `crates/`, `examples/` or `benchmark/src/`
names, leaving out `tests/` directories, `#[cfg(test)]` items (test
modules and test-only oracles), comments, string literals and `use`
lines. The code of a doc example counts: it is the documented way to call
the item.

A second list follows under "reached only from `benchmark/src`": the
items that a benchmark workload calls but no call site in `crates/` or
`examples/` does. The benchmark measures them, yet no product path runs
them.

A call site is `.name(`, `::name` or a bare `name(` that is not the
name's own `fn` (a turbofish between name and parenthesis is allowed). A
field, a variable or a function passed by its bare name reaches nothing.
It still matches names, not types, so a method that shares its name with
a called function or method is hidden: an unused `sample` method on
one type beside a called `PowerMeter::sample`, say. Check a
suspected item by deleting it and building the workspace and the
benchmark.

Advisory: it always exits 0. It is not a CI step.
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
DEF = re.compile(
    r"\bpub(?:\(crate\))?\s+(?:const\s+)?(?:unsafe\s+)?fn\s+([A-Za-z_][A-Za-z0-9_]*)"
)
# `.name(`, `::name`, or a bare `name(` (its own `fn` is left out below).
TURBOFISH = r"(?:\s*::\s*<[^;(){}]*>)?"
CALL = re.compile(
    r"\.\s*([A-Za-z_][A-Za-z0-9_]*)" + TURBOFISH + r"\s*\("
    r"|::\s*([A-Za-z_][A-Za-z0-9_]*)"
    r"|(?<![\w.:])(?<!\bfn )([A-Za-z_][A-Za-z0-9_]*)" + TURBOFISH + r"\s*\("
)


def blank_comments_and_literals(src):
    """`src` with comments, string and char literals replaced by spaces
    (newlines kept), so braces and names inside them do not count, and
    the code of the doc examples in its `///` and `//!` comments."""
    out, examples = [], []
    in_example = False
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
            if src.startswith(("///", "//!"), i):
                text = src[i + 3:j].strip()
                if text.startswith("```"):
                    in_example = not in_example
                elif in_example:
                    examples.append(text)
            out.append(" " * (j - i))
            i = j
        elif src.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if src.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif src.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            out.append(re.sub(r"[^\n]", " ", src[i:j]))
            i = j
        elif re.match(r'(?:b?r#*")', src[i:i + 8]) and (i == 0 or not src[i - 1].isalnum()):
            m = re.match(r'b?r(#*)"', src[i:])
            end = src.find('"' + m.group(1), i + m.end())
            j = n if end < 0 else end + 1 + len(m.group(1))
            out.append(re.sub(r"[^\n]", " ", src[i:j]))
            i = j
        elif c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            out.append(re.sub(r"[^\n]", " ", src[i:j + 1]))
            i = j + 1
        elif c == "'":
            m = re.match(r"'(?:\\.|\\u\{[0-9a-fA-F]+\}|[^'\\])'", src[i:])
            if m:
                out.append(" " * m.end())
                i += m.end()
            else:  # a lifetime
                out.append(c)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out), "\n".join(examples)


def strip_test_items(code):
    """`code` with every `#[cfg(test)]` item (attribute through its closing
    brace or semicolon) blanked."""
    out, pos = [], 0
    for m in re.finditer(r"#\[cfg\(test\)\]", code):
        if m.start() < pos:
            continue
        out.append(code[pos:m.start()])
        j = m.end()
        while j < len(code) and code[j] not in "{;":
            j += 1
        if j < len(code) and code[j] == "{":
            depth = 0
            while j < len(code):
                depth += {"{": 1, "}": -1}.get(code[j], 0)
                if depth == 0:
                    break
                j += 1
        end = min(j + 1, len(code))
        out.append(re.sub(r"[^\n]", " ", code[m.start():end]))
        pos = end
    out.append(code[pos:])
    return "".join(out)


def product_sources():
    roots = [ROOT / "crates", ROOT / "examples", ROOT / "benchmark" / "src"]
    for root in roots:
        for path in sorted(root.rglob("*.rs")):
            rel = path.relative_to(ROOT).parts
            if "tests" in rel or "target" in rel:
                continue
            if rel[0] == "crates" and rel[1].startswith("compat-"):
                continue
            yield path


def main():
    uses = {}
    bench_uses = set()
    defs = []
    for path in product_sources():
        text, examples = blank_comments_and_literals(path.read_text())
        text = strip_test_items(text)
        # `use` lines name items without reaching them.
        text = re.sub(
            r"(?m)^\s*(?:pub(?:\([a-z]+\))?\s+)?use\s[^;]*;",
            lambda m: re.sub(r"[^\n]", " ", m.group()),
            text,
        )
        rel = path.relative_to(ROOT)
        for m in CALL.finditer(text + "\n" + examples):
            name = m.group(m.lastindex)
            if rel.parts[0] == "benchmark":
                bench_uses.add(name)
            else:
                uses[name] = uses.get(name, 0) + 1
        if rel.parts[0] == "crates" and rel.parts[2] == "src":
            for m in DEF.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                defs.append((str(rel), line, m.group(1)))

    for rel, line, name in defs:
        if name not in uses and name not in bench_uses:
            print(f"{rel}:{line}: {name}")
    bench_only = [(rel, line, name) for rel, line, name in defs
                  if name not in uses and name in bench_uses]
    if bench_only:
        print("\nreached only from `benchmark/src`:")
        for rel, line, name in bench_only:
            print(f"{rel}:{line}: {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
