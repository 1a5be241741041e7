"""Corpus analysis: medians, coverage intervals and paired hypothesis tests.

Generates a small synthetic corpus of feature models in two domains with
deliberately different texture (one domain leans on exclusions, the other
on requirements), writes a manifest, runs the corpus pipeline and prints
the per-domain statistics the same way the CSV tables report them.
"""

import csv
import random
import tempfile
from pathlib import Path

from fmnet.corpus import analyze_corpus, load_manifest


def synthetic_model(rng: random.Random, tag: str, exclusion_heavy: bool) -> str:
    lines = [f"feature {tag}"]
    names = [f"{tag}_F{j}" for j in range(rng.randint(6, 9))]
    for name in names:
        lines.append(f"    optional {name}")
    for _ in range(rng.randint(3, 5)):
        a, b = rng.sample(names, 2)
        if rng.random() < (0.8 if exclusion_heavy else 0.2):
            lines.append(f"    constraint {a} => !{b}")
        else:
            lines.append(f"    constraint {a} => {b}")
    return "\n".join(lines) + "\n"


def main() -> None:
    rng = random.Random(424242)
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        rows = []
        for idx in range(16):
            domain = "drivers" if idx % 2 else "toolchain"
            tag = f"{domain.upper()}_{idx:02d}"
            text = synthetic_model(rng, tag, exclusion_heavy=domain == "drivers")
            path = root / f"{tag.lower()}.fm"
            path.write_text(text, "utf-8")
            rows.append((tag.lower(), path.name, "fm", domain))
        manifest_path = root / "manifest.csv"
        with manifest_path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "path", "format", "domain"])
            writer.writerows(rows)

        result = analyze_corpus(load_manifest(manifest_path))

    print(f"analyzed {len(result.records)} models, "
          f"{len(result.failures)} failures\n")

    print("domain medians with 95% coverage intervals (2.5th..97.5th percentiles):")
    for domain, stats in sorted(result.domain_stats.items()):
        print(f"  {domain}:")
        for metric, summary in stats.items():
            rho = "" if summary.rho is None else f"   size corr {summary.rho:+.2f}"
            print(f"    {metric:18s} median {summary.median:6.2f}   "
                  f"interval [{summary.ci_low:.2f}, {summary.ci_high:.2f}]   "
                  f"n={summary.n}{rho}")

    print("\npaired one-sided tests per domain:")
    for domain, tests in result.tests.items():
        for hypothesis, test in tests.items():
            verdict = "significant" if test.significant() else "not significant"
            print(f"  {domain:10s} {hypothesis:22s} "
                  f"p={test.p_value:.4f} effect={test.effect_size_r:.2f} "
                  f"({test.effect_label}): {verdict}")


if __name__ == "__main__":
    main()
