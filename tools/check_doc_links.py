#!/usr/bin/env python3
"""Verify that the repo's docs point at files that exist.

Two checks:

* Links: every inline link [text](target) in the repo's top-level *.md
  files and docs/*.md.  Absolute URLs (scheme: or mailto:) and pure in-page
  anchors (#...) are skipped, any #fragment is stripped, and the remaining
  path must exist relative to the file containing the link.
* Code paths: in README.md and docs/*.md, every token of an inline code
  span (`...`) that starts with src/, tests/, bench/, tools/, examples/ or
  docs/ must exist relative to the repo root.  A trailing :LINE or
  :FIRST-LAST reference and any #fragment are stripped; globs and
  placeholders (any of *?[]{}<>) are skipped, as are fenced code blocks.
  CHANGES.md and ROADMAP.md are history -- they name files that are gone
  on purpose -- so they get the link check only.

Usage: python3 tools/check_doc_links.py  (from anywhere; also a ctest case)

Exit status: 0 when everything resolves, 1 otherwise (each problem is
reported on stderr as file:line: message).
"""
import re
import sys
from pathlib import Path

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_RE = re.compile(r"^([a-z][a-z0-9+.-]*:|#)", re.IGNORECASE)
CODE_RE = re.compile(r"`([^`]+)`")
PATH_RE = re.compile(r"^(src|tests|bench|tools|examples|docs)/")
LINE_REF_RE = re.compile(r":\d+(-\d+)?$")
GLOB_CHARS = set("*?[]{}<>")


def check_links(md: Path) -> list[str]:
    errors = []
    for lineno, line in enumerate(md.read_text(encoding="utf-8").splitlines(), 1):
        for target in LINK_RE.findall(line):
            if SKIP_RE.match(target):
                continue  # URL or in-page anchor
            path = target.split("#", 1)[0]
            if not path:
                continue
            if not (md.parent / path).exists():
                errors.append(f"{md}:{lineno}: broken link -> {target}")
    return errors


def check_code_paths(md: Path, repo: Path) -> list[str]:
    errors = []
    fenced = False
    for lineno, line in enumerate(md.read_text(encoding="utf-8").splitlines(), 1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if fenced:
            continue
        for span in CODE_RE.findall(line):
            for token in span.split():
                if not PATH_RE.match(token) or GLOB_CHARS & set(token):
                    continue
                path = LINE_REF_RE.sub("", token.split("#", 1)[0])
                if not (repo / path).exists():
                    errors.append(f"{md}:{lineno}: missing path -> {token}")
    return errors


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    docs = sorted((repo / "docs").glob("*.md"))
    files = sorted(repo.glob("*.md")) + docs
    errors = []
    for md in files:
        errors.extend(check_links(md))
    for md in [repo / "README.md", *docs]:
        errors.extend(check_code_paths(md, repo))
    for e in errors:
        print(e, file=sys.stderr)
    print(f"check_doc_links: {len(files)} files scanned, {len(errors)} broken links or paths")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
