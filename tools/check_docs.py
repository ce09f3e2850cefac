"""Documentation checker: execute doc snippets, verify intra-repo links.

Run from the repository root (CI does this in the lint job)::

    PYTHONPATH=src python tools/check_docs.py

Two checks over ``README.md`` and ``docs/*.md``:

* **Snippets** -- every fenced code block tagged exactly ``python`` is
  executed, cumulatively per file (later blocks see earlier blocks'
  names, so a page reads as one narrative session).  Tag a block
  ``python no-run`` to exclude it.  A raised exception fails the check
  with the file and block line number.
* **Links** -- every relative markdown link/image target must exist on
  disk (anchors are stripped; ``http(s)``/``mailto`` links are skipped),
  so a moved file cannot leave dangling references.

Exit status: 0 when everything passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import re
import sys
import traceback
from pathlib import Path

#: ```lang ... ``` fences, capturing the info string and the body.
_FENCE = re.compile(r"^```([^\n`]*)\n(.*?)^```\s*$", re.MULTILINE | re.DOTALL)
#: [text](target) and ![alt](target) -- good enough for these docs.
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")


def extract_python_blocks(text: str) -> list[tuple[int, str]]:
    """``(1-based start line of the code, source)`` per runnable block.

    Only fences whose info string is exactly ``python`` run; anything
    else (``bash``, ``text``, ``python no-run``, ...) is documentation.
    """
    blocks = []
    for match in _FENCE.finditer(text):
        if match.group(1).strip() != "python":
            continue
        line = text.count("\n", 0, match.start()) + 2  # body starts after ```
        blocks.append((line, match.group(2)))
    return blocks


def extract_relative_links(text: str) -> list[str]:
    """Relative link targets (external schemes and pure anchors skipped)."""
    out = []
    for target in _LINK.findall(text):
        if re.match(r"^[a-z][a-z0-9+.-]*:", target) or target.startswith("#"):
            continue
        out.append(target.split("#", 1)[0])
    return [t for t in out if t]


def check_links(path: Path, root: Path) -> list[str]:
    """Broken-link messages for one markdown file (empty when clean)."""
    errors = []
    for target in extract_relative_links(path.read_text()):
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            errors.append(f"{path.relative_to(root)}: broken link -> {target}")
    return errors


def run_snippets(path: Path, root: Path) -> list[str]:
    """Execute one file's python blocks cumulatively; error messages back."""
    blocks = extract_python_blocks(path.read_text())
    namespace: dict = {"__name__": "__doc_snippet__"}
    rel = path.relative_to(root)
    for line, source in blocks:
        label = f"{rel}:{line}"
        try:
            code = compile(source, str(label), "exec")
            exec(code, namespace)  # noqa: S102 - executing our own docs is the point
        except Exception:
            tail = traceback.format_exc().strip().splitlines()[-1]
            return [f"{label}: snippet raised {tail}"]
    return []


def documentation_files(root: Path) -> list[Path]:
    docs = sorted((root / "docs").glob("*.md")) if (root / "docs").is_dir() else []
    readme = root / "README.md"
    return docs + ([readme] if readme.exists() else [])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent,
        help="repository root (default: the checkout containing this script)",
    )
    parser.add_argument(
        "--links-only", action="store_true",
        help="check links without executing snippets",
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()
    errors: list[str] = []
    for path in documentation_files(root):
        errors.extend(check_links(path, root))
    if errors:
        # Broken links are cheap to report before the slow snippet pass.
        for message in errors:
            print(f"FAIL {message}", file=sys.stderr)
        return 1
    if not args.links_only:
        # One process runs every page, so the pages share their digit sets
        # as one session would, instead of each synthesizing its own.
        from repro.experiments.common import holding_datasets

        with holding_datasets():
            for path in documentation_files(root):
                count = len(extract_python_blocks(path.read_text()))
                print(f"running {count} snippet block(s) from {path.relative_to(root)}")
                errors.extend(run_snippets(path, root))
    if errors:
        for message in errors:
            print(f"FAIL {message}", file=sys.stderr)
        return 1
    print("docs OK: links resolve, snippets execute")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
