#!/usr/bin/env python3
"""Count each library crate's `pub` surface and how much of it is used.

For every crate under `crates/`, build its rustdoc JSON (nightly
`rustdoc --output-format json`) and count the public items the crate
itself defines (`crate_id == 0`, `visibility == "public"`), leaving out
modules, impls, fields, variants and `use` re-exports.  An item counts
as *named* when its name appears as a word in some `.rs` file outside
that crate's `src/` (other crates, the root package, tests, examples,
`benchmark/src`; not the third-party stand-ins under `vendor/`).  Name
matching overcounts use, so the "never named" column is a floor and a
candidate list, not a verdict.

    python3 scripts/pub_surface.py                # the table
    python3 scripts/pub_surface.py --list kc-machine   # and the names

Needs a nightly toolchain (`cargo +nightly`); builds offline into
`target/pub-surface`.  A measurement, not a gate.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED_KINDS = {"module", "impl", "struct_field", "variant", "use", "import"}


def package_name(crate_dir):
    text = (crate_dir / "Cargo.toml").read_text()
    return re.search(r'^name\s*=\s*"([^"]+)"', text, re.M).group(1)


def rustdoc_json(package, target_dir):
    """Build `package`'s rustdoc JSON and return it parsed."""
    subprocess.run(
        ["cargo", "+nightly", "rustdoc", "-q", "--offline", "--lib", "-p", package,
         "--target-dir", str(target_dir),
         "--", "-Z", "unstable-options", "--output-format", "json"],
        cwd=ROOT, check=True)
    path = target_dir / "doc" / (package.replace("-", "_") + ".json")
    return json.loads(path.read_text())


def public_items(doc):
    """(name, kind) of every public item the crate itself defines."""
    items = []
    for item in doc["index"].values():
        if item.get("crate_id") != 0 or item.get("visibility") != "public":
            continue
        kind = next(iter(item["inner"]))
        if kind in SKIPPED_KINDS or not item.get("name"):
            continue
        items.append((item["name"], kind))
    return sorted(items)


def rust_sources():
    """Every `.rs` file of the repository outside build output and
    `vendor/`."""
    for dirpath, dirnames, filenames in os.walk(ROOT):
        skipped = ("target", ".git", "vendor") if Path(dirpath) == ROOT else ("target",)
        dirnames[:] = [d for d in dirnames if d not in skipped]
        for name in filenames:
            if name.endswith(".rs"):
                yield Path(dirpath) / name


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", metavar="CRATE", action="append", default=[],
                        help="also print the never-named items of CRATE")
    args = parser.parse_args()

    target_dir = ROOT / "target" / "pub-surface"
    sources = {path: path.read_text() for path in rust_sources()}
    rows = []
    for crate_dir in sorted((ROOT / "crates").iterdir()):
        if not (crate_dir / "src" / "lib.rs").exists():
            continue
        package = package_name(crate_dir)
        own_src = crate_dir / "src"
        outside = [text for path, text in sources.items() if own_src not in path.parents]
        items = public_items(rustdoc_json(package, target_dir))
        unnamed = [(name, kind) for name, kind in items
                   if not any(re.search(rf"\b{re.escape(name)}\b", text) for text in outside)]
        rows.append((package, len(items), unnamed))

    rows.sort(key=lambda row: (-len(row[2]), -row[1], row[0]))
    print("| crate | `pub` items | never named outside its `src/` |")
    print("|---|---|---|")
    for package, count, unnamed in rows:
        print(f"| {package} | {count} | {len(unnamed)} |")
    print(f"| total | {sum(r[1] for r in rows)} | {sum(len(r[2]) for r in rows)} |")
    for package, _, unnamed in rows:
        if package in args.list:
            print(f"\n{package}, never named outside its src/:")
            for name, kind in unnamed:
                print(f"  {kind:12} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
