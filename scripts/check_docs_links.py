#!/usr/bin/env python
"""Stdlib link checker for the repo's markdown docs.

Validates every markdown link in ``docs/*.md``, ``README.md`` and
``ROADMAP.md``, and every ``*.md`` file name cited in the Python sources
under ``src/``, ``benchmarks/`` and ``scripts/`` (or only the files
passed as arguments):

* relative links must point at files or directories that exist in the
  repo (resolved against the linking file's directory, ``#fragment``
  stripped);
* intra-repo ``#fragment`` anchors must match a heading in the target
  file, using GitHub's heading-slug convention;
* external ``http(s)``/``mailto`` links are counted but not fetched —
  CI must stay offline-deterministic;
* a ``.md`` name cited in a ``.py`` file (docstring, comment or string)
  must name a file relative to the repo root, so a docstring cannot
  point readers at a document that does not exist.

Exit status 0 when every link resolves, 1 otherwise (with a report of
each broken link).  No third-party dependencies, so the CI docs job is
just ``python scripts/check_docs_links.py``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Inline markdown links/images: [text](target) — target up to the first
#: unescaped closing paren; titles ("...") after the URL are tolerated.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(\s*<?([^)<>\s]+)>?(?:\s+\"[^\"]*\")?\s*\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")
_CODE_FENCE_RE = re.compile(r"^\s*(```|~~~)")
#: A markdown file name cited in Python source; glob patterns such as
#: ``docs/*.md`` are not citations.
_MD_CITATION_RE = re.compile(r"(?<![\w./*-])(\w[\w./-]*\.md)\b")
PY_SOURCE_DIRS = ("src", "benchmarks", "scripts")


def default_files() -> List[Path]:
    files = [REPO_ROOT / "README.md", REPO_ROOT / "ROADMAP.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    for directory in PY_SOURCE_DIRS:
        files.extend(sorted((REPO_ROOT / directory).rglob("*.py")))
    return [f for f in files if f.exists()]


def heading_slugs(path: Path) -> set:
    """GitHub-style anchor slugs of every heading in ``path``."""
    slugs = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if _CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = _HEADING_RE.match(line)
        if not m:
            continue
        text = re.sub(r"[`*_]", "", m.group(1)).strip().lower()
        slug = re.sub(r"[^\w\- ]", "", text).replace(" ", "-")
        slugs.add(slug)
    return slugs


def extract_links(path: Path) -> List[Tuple[int, str]]:
    """(line_number, target) for every markdown link outside code fences."""
    links = []
    in_fence = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if _CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for m in _LINK_RE.finditer(line):
            links.append((lineno, m.group(1)))
    return links


def check_file(path: Path) -> Tuple[List[str], int, int]:
    """Return (problems, n_checked, n_external) for one markdown file."""
    problems = []
    checked = external = 0
    for lineno, target in extract_links(path):
        if target.startswith(("http://", "https://", "mailto:")):
            external += 1
            continue
        checked += 1
        base, _, fragment = target.partition("#")
        if not base:  # pure intra-document anchor
            dest = path
        else:
            dest = (path.parent / base).resolve()
            if not dest.exists():
                problems.append(f"{path.relative_to(REPO_ROOT)}:{lineno}: broken link -> {target}")
                continue
        if fragment and dest.suffix == ".md":
            if fragment.lower() not in heading_slugs(dest):
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}:{lineno}: "
                    f"missing anchor -> {target}"
                )
    return problems, checked, external


def check_citations(path: Path) -> Tuple[List[str], int]:
    """Return (problems, n_checked) for the ``.md`` names cited in ``path``."""
    problems = []
    checked = 0
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        for m in _MD_CITATION_RE.finditer(line):
            checked += 1
            if not (REPO_ROOT / m.group(1)).exists():
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}:{lineno}: dangling citation -> {m.group(1)}"
                )
    return problems, checked


def main(argv: List[str]) -> int:
    files = [Path(a).resolve() for a in argv] if argv else default_files()
    all_problems = []
    total = ext_total = cited = 0
    for path in files:
        if not path.exists():
            all_problems.append(f"{path}: file not found")
            continue
        if path.suffix == ".py":
            problems, checked = check_citations(path)
            cited += checked
        else:
            problems, checked, external = check_file(path)
            total += checked
            ext_total += external
        all_problems.extend(problems)
    print(
        f"checked {total} relative link(s) and {cited} .md citation(s) across "
        f"{len(files)} file(s) ({ext_total} external link(s) skipped)"
    )
    if all_problems:
        print("\n".join(all_problems), file=sys.stderr)
        return 1
    print("all links resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
