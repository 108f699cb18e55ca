"""Every citation of the evaluation's documents names a file the repo has."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Spelled in parts, so that this file cites neither document itself.
CITED = re.compile(r"\b(?:" + "|".join(["EXPERIMENTS", "DESIGN"]) + r")\.md\b")


def test_cited_documents_exist():
    paths = [ROOT / "README.md"]
    for folder in ("src", "benchmarks", "scripts", "tests"):
        paths += sorted(p for ext in ("*.py", "*.md") for p in (ROOT / folder).rglob(ext))
    dangling = [
        f"{path.relative_to(ROOT)}:{lineno}: {name}"
        for path in paths
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        for name in CITED.findall(line)
        if not (ROOT / name).is_file()
    ]
    assert not dangling, "cited documents that do not exist:\n" + "\n".join(dangling)
