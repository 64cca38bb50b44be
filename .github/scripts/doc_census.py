#!/usr/bin/env python3
"""Fails when the docs name a project symbol that no src/ header declares.

    python3 .github/scripts/doc_census.py [CHECKOUT]

Reads docs/*.md, README.md, DESIGN.md and EXPERIMENTS.md. In every inline
code span (fenced blocks are skipped), each name qualified by a project
namespace -- amp, core, svc, plan, rt, dsim, arb, obs, sim or dvbs2, e.g.
`plan::ExecutionPlan::compile` -- must have every component after that
namespace occur as an identifier somewhere in src/**/*.hpp, with comments
and string literals stripped. A deleted function, type or field therefore
cannot stay named in the docs. Prints each offender and exits 1 if there
is any. CHECKOUT defaults to the checkout this script sits in.
"""

import pathlib
import re
import sys

DOCS = ("docs/*.md", "README.md", "DESIGN.md", "EXPERIMENTS.md")
NAMESPACES = ("amp", "core", "svc", "plan", "rt", "dsim", "arb", "obs", "sim", "dvbs2")
QUALIFIED = re.compile(r"(?<![\w:])(?:%s)((?:::[A-Za-z_]\w*)+)" % "|".join(NAMESPACES))
CODE_SPAN = re.compile(r"`([^`\n]+)`")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def strip_comments_and_literals(text):
    """C++ source with comments, string and character literals blanked."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            i = text.find("\n", i)
            i = n if i < 0 else i
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            i = n if end < 0 else end + 2
            out.append(" ")
        elif c == '"' or (c == "'" and not (i > 0 and (text[i - 1].isalnum()
                                                         or text[i - 1] == "_"))):
            # A ' after an identifier character is a digit separator.
            i += 1
            while i < n and text[i] != c and text[i] != "\n":
                i += 2 if text[i] == "\\" else 1
            i += 1
            out.append(" ")
        else:
            out.append(c)
            i += 1
    return "".join(out)


def header_identifiers(root):
    names = set()
    for header in (root / "src").rglob("*.hpp"):
        code = strip_comments_and_literals(header.read_text(encoding="utf-8"))
        names.update(IDENTIFIER.findall(code))
    return names


def doc_files(root):
    files = []
    for pattern in DOCS:
        files.extend(sorted(root.glob(pattern)))
    return files


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                        else pathlib.Path(__file__).resolve().parents[2])
    declared = header_identifiers(root)
    offenders = []
    for doc in doc_files(root):
        fenced = False
        for number, line in enumerate(doc.read_text(encoding="utf-8").splitlines(), 1):
            if line.lstrip().startswith("```"):
                fenced = not fenced
                continue
            if fenced:
                continue
            for span in CODE_SPAN.findall(line):
                for match in QUALIFIED.finditer(span):
                    missing = [part for part in match.group(1).split("::")[1:]
                               if part not in declared]
                    if missing:
                        offenders.append((doc.relative_to(root).as_posix(), number,
                                          match.group(0), missing))

    for path, number, name, missing in offenders:
        print(f"{path}:{number}: `{name}`: {', '.join(missing)} not declared in src/**/*.hpp")
    if offenders:
        print(f"doc census: {len(offenders)} stale name(s) in the docs")
        return 1
    print("doc census: every namespace-qualified name in the docs is declared in src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
