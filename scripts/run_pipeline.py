"""End-to-end demo: generate a corpus, train the anonymizer, anonymize and
evaluate, then print the headline comparison.

    python scripts/run_pipeline.py --out-dir runs/demo [--seed N] [--lambda L]

Uses the packaged defaults (about two minutes of training on one core).
Pass --quick for a thumbnail run that only demonstrates the plumbing.
"""

import argparse
import json
import sys
from pathlib import Path

from spkdeid.cli import RunConfig, main as cli_main
from spkdeid.metrics import read_report_csv


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="runs/demo")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--lambda", dest="lam", type=float, default=None)
    parser.add_argument("--method", default="aan1",
                        choices=["baseline_farthest", "aan1", "aan2"])
    parser.add_argument("--quick", action="store_true",
                        help="tiny corpus and a short training run")
    return parser.parse_args()


def main():
    args = parse_args()
    config = RunConfig().to_dict()
    config["out_dir"] = args.out_dir
    config["anonymize"]["method"] = args.method
    if args.seed is not None:
        config["seed"] = args.seed
    if args.lam is not None:
        config["train"]["lambda"] = args.lam
    if args.quick:
        config["corpus"].update(n_speakers=10, utterances_per_speaker=9, dim=16)
        config["split"]["n_heldout_per_speaker"] = 2
        config["model"].update(hidden=32, latent=4, branch_hidden=16)
        config["train"].update(epochs=60, batch_size=16)
        config["trials"]["n_nontarget_per_target"] = 3

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")

    for stage in (["gen-data"], ["train"],
                  ["anonymize", "--method", args.method,
                   "--model", str(out / "model.aan"),
                   "--pool", str(out / "train.csv"),
                   "--in", str(out / "test.csv"),
                   "--out", str(out / "anonymized_test.csv")],
                  ["evaluate"]):
        print(f"==> {' '.join(stage)}")
        code = cli_main(stage + ["--config", str(config_path)])
        if code != 0:
            return code

    report = read_report_csv(out / "report.csv")
    by_condition = {}
    for row in report.rows:
        by_condition.setdefault((row.enroll, row.trial), []).append(row)
    print("\nsummary (mean over genders):")
    for condition, rows in by_condition.items():
        eer = sum(r.eer_pct for r in rows) / len(rows)
        print(f"  {condition[0]}-{condition[1]}: EER {eer:6.2f}%   "
              f"probe acc speaker {rows[0].probe_speaker:.3f} "
              f"gender {rows[0].probe_gender:.3f} accent {rows[0].probe_accent:.3f}")
    oo = sum(r.eer_pct for r in by_condition[("o", "o")]) / len(by_condition[("o", "o")])
    aa = sum(r.eer_pct for r in by_condition[("a", "a")]) / len(by_condition[("a", "a")])
    print(f"\nboth-sides anonymization raises EER by {aa - oo:.1f} points "
          f"({oo:.2f}% -> {aa:.2f}%) while the speaker probe drops from "
          f"{by_condition[('o', 'o')][0].probe_speaker:.3f} to "
          f"{by_condition[('a', 'a')][0].probe_speaker:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
