"""The README's "Performance envelope" must match the latest BENCH file."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_envelope_cites_the_latest_bench_file():
    numbers = [
        int(m.group(1))
        for path in ROOT.glob("BENCH_*.json")
        if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))
    ]
    assert numbers
    latest = f"BENCH_{max(numbers)}.json"
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    envelope = readme.split("\n## Performance envelope\n", 1)[1].split("\n## ", 1)[0]
    assert f"`{latest}`" in envelope
    json.loads((ROOT / latest).read_text(encoding="utf-8"))
