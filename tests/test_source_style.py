"""Conventions of the library source that review would otherwise check by hand."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qkernel"


def test_no_source_line_exceeds_100_characters():
    long = [f"{path.name}:{number}" for path in sorted(SRC.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100]
    assert not long, long
