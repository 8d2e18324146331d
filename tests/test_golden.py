"""Golden-artifact test: the exact bytes of every output over a fixed matrix.

Each case runs one experiment into a temporary directory and hashes, in a
fixed order, ``runs.csv``, ``summary.json``, every per-run ``metrics.csv``
and ``trace.txt``, and each run's final snapshot digest. Each case's
``summary.json`` must also parse as strict JSON (no ``NaN``). The pinned
values were produced by the step-by-step engine; any change to the engine
that alters a single output byte shows here.

To re-pin after a deliberate change of output, run
``python tests/test_golden.py`` and review the printed table.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from enertree.harness import ExperimentConfig, run_experiment

PROTOCOLS = ("ideal", "lambda:2", "rand", "kappa:0.5", "kdepth:2")
LOSSES = ("lossless", "normal:0.2,0.05")
SIZES = (2, 3, 16, 17, 30)


def _cases() -> dict[str, dict]:
    cases = {}
    for proto in PROTOCOLS:
        for loss in LOSSES:
            for mode in ("twophase", "concurrent"):
                for traces in (False, True):
                    name = f"n10-{proto}-{loss.split(':')[0]}-{mode}" + ("-trace" if traces else "")
                    cases[name] = dict(
                        n=10, energy_protocol=proto, loss=loss, phase_mode=mode,
                        target_energy_basis="initial" if mode == "concurrent" else "post_formation",
                        emit_traces=traces,
                    )
    for proto in ("lambda:2", "kappa:0.5", "rand"):
        for n in SIZES:
            for loss in LOSSES:
                cases[f"n{n}-{proto}-{loss.split(':')[0]}"] = dict(n=n, energy_protocol=proto, loss=loss)
    for n in (17, 30):
        for proto in ("ideal", "kdepth:2"):
            for loss in LOSSES:
                cases[f"n{n}-{proto}-{loss.split(':')[0]}"] = dict(n=n, energy_protocol=proto, loss=loss)
        # The stabilization probe and the metric cadence are both n here.
        for proto in ("lambda:2", "kdepth:2"):
            cases[f"n{n}-{proto}-concurrent"] = dict(
                n=n, energy_protocol=proto, phase_mode="concurrent", target_energy_basis="initial",
            )
    for n in (10, 30):
        for proto in ("lambda:2", "ideal"):
            cases[f"n{n}-{proto}-arbitrary"] = dict(
                n=n, protocol="arbitrary", energy_protocol=proto, emit_traces=n == 10,
            )
    for proto in ("lambda:2", "ideal"):
        cases[f"n10-{proto}-uniform"] = dict(n=10, energy_protocol=proto, initial_energy="uniform")
    # Run 0 runs out of phase A before its estimates settle; run 1 never
    # stabilizes.
    cases["n17-lambda:2-budget400"] = dict(
        n=17, energy_protocol="lambda:2", step_budget=400, emit_traces=True
    )
    # Formation never finishes within the budget.
    for mode, basis in (("twophase", "post_formation"), ("concurrent", "initial")):
        cases[f"n30-lambda:2-budget60-{mode}"] = dict(
            n=30, energy_protocol="lambda:2", step_budget=60, phase_mode=mode,
            target_energy_basis=basis, emit_traces=True,
        )
    return cases


CASES = _cases()


BASE = dict(repetitions=3, master_seed=2024, initial_energy="random", emit_metrics=True)


def artifact_digest(fields: dict, out: Path) -> str:
    config = ExperimentConfig(**{**BASE, **fields})
    summary = run_experiment(config, out_dir=out)
    h = hashlib.sha256()
    for name in ("runs.csv", "summary.json"):
        h.update((out / name).read_bytes())
    for i in range(config.repetitions):
        for name in ("metrics.csv", "trace.txt"):
            path = out / f"run_{i}" / name
            if path.exists():
                h.update(name.encode() + path.read_bytes())
    for r in summary.results:
        h.update(r.outcome.digest.encode())
    return h.hexdigest()[:20]


GOLDEN = {
    "n10-ideal-lossless-concurrent": "4c1dfac09c1d6b283368",
    "n10-ideal-lossless-concurrent-trace": "a5ff9f7696104c1a8d38",
    "n10-ideal-lossless-twophase": "142f813ea6d678e39ef1",
    "n10-ideal-lossless-twophase-trace": "af4ffb4d19aad913d54a",
    "n10-ideal-normal-concurrent": "ead741a7d4bb2ef6d106",
    "n10-ideal-normal-concurrent-trace": "6444c6dfa09740277a30",
    "n10-ideal-normal-twophase": "9621b204151b0d849f85",
    "n10-ideal-normal-twophase-trace": "87093a39d4c929013b61",
    "n10-kappa:0.5-lossless-concurrent": "5b0f9564fab09152bf91",
    "n10-kappa:0.5-lossless-concurrent-trace": "14517fd8365e4f57bfe0",
    "n10-kappa:0.5-lossless-twophase": "8ecdec649283eb5eaf65",
    "n10-kappa:0.5-lossless-twophase-trace": "192d407f5ed6ed8e63c7",
    "n10-kappa:0.5-normal-concurrent": "a2015554445ce9e358fd",
    "n10-kappa:0.5-normal-concurrent-trace": "32a6fc5ad864d62dfe14",
    "n10-kappa:0.5-normal-twophase": "c65c8415b275c14ee745",
    "n10-kappa:0.5-normal-twophase-trace": "66d245cf81cf64064ae5",
    "n10-kdepth:2-lossless-concurrent": "23aa9b954cd2c9d709bf",
    "n10-kdepth:2-lossless-concurrent-trace": "b8173e487cb7b8a5e878",
    "n10-kdepth:2-lossless-twophase": "58a8a6d781b76d542775",
    "n10-kdepth:2-lossless-twophase-trace": "4876f86c6f18912088b8",
    "n10-kdepth:2-normal-concurrent": "806ec046279750a76a7f",
    "n10-kdepth:2-normal-concurrent-trace": "a5a276f32063e0a2af43",
    "n10-kdepth:2-normal-twophase": "bf9345455cd862fcc66b",
    "n10-kdepth:2-normal-twophase-trace": "2a2511622e9a6a6d9d06",
    "n10-lambda:2-lossless-concurrent": "805281c3ef56f840223c",
    "n10-lambda:2-lossless-concurrent-trace": "c62722d4e066b4ce6683",
    "n10-lambda:2-lossless-twophase": "f407e89b8da3d7d46167",
    "n10-lambda:2-lossless-twophase-trace": "c19a01fb87f591879c8a",
    "n10-lambda:2-normal-concurrent": "9c50d5127aa1d2d92359",
    "n10-lambda:2-normal-concurrent-trace": "f52ceb3abe279f0751cd",
    "n10-lambda:2-normal-twophase": "6da7378e30e62f2efffd",
    "n10-lambda:2-normal-twophase-trace": "41ace0b63c9d706ec1da",
    "n10-rand-lossless-concurrent": "b7730417d153efbcd678",
    "n10-rand-lossless-concurrent-trace": "41d92f7bc5c6a911c4d5",
    "n10-rand-lossless-twophase": "fdc722e7051a9bc07942",
    "n10-rand-lossless-twophase-trace": "5ae10e4b444a8553a019",
    "n10-rand-normal-concurrent": "51b57a82afb5ecb2e491",
    "n10-rand-normal-concurrent-trace": "8110323de8101c89f6c8",
    "n10-rand-normal-twophase": "1510aa6db8a59933bdb6",
    "n10-rand-normal-twophase-trace": "91d687b3131fa006e5a3",
    "n16-kappa:0.5-lossless": "a46c570240ecd65755ae",
    "n16-kappa:0.5-normal": "3aa1c36ee372177d952b",
    "n16-lambda:2-lossless": "9b2f0bf223b71b1b7c25",
    "n16-lambda:2-normal": "3b372d58e4948c8c7a00",
    "n16-rand-lossless": "994a05cfdb0028361545",
    "n16-rand-normal": "b7cdaacee93af816eed7",
    "n17-kappa:0.5-lossless": "c83c079e1f5c5396165a",
    "n17-kappa:0.5-normal": "30da207b05492d61644e",
    "n17-lambda:2-lossless": "293acb994b11341fb357",
    "n17-lambda:2-normal": "1cda9360991442d93f32",
    "n17-rand-lossless": "5945b351c02561de0ab4",
    "n17-rand-normal": "a7d9e8ebd0c07bb876cb",
    "n2-kappa:0.5-lossless": "9176508e0e59fb81cb55",
    "n2-kappa:0.5-normal": "e1a1f9956e769b7faf2c",
    "n2-lambda:2-lossless": "0317afb3bd89d135e191",
    "n2-lambda:2-normal": "45739f1da91149dddc35",
    "n2-rand-lossless": "12d26970fbac13073d7f",
    "n2-rand-normal": "dccbd065a6fec493d49a",
    "n3-kappa:0.5-lossless": "26e13b6edb1853189ac6",
    "n3-kappa:0.5-normal": "fef499e9790f52af0945",
    "n3-lambda:2-lossless": "489d9b4f2cf661ce8460",
    "n3-lambda:2-normal": "7a03e6d678e09492b391",
    "n3-rand-lossless": "50f4cbbac2a51c265fa2",
    "n3-rand-normal": "e85539fc549a497a8373",
    "n30-kappa:0.5-lossless": "ae163b484b1993cd4ec0",
    "n30-kappa:0.5-normal": "9ee914d4074ba688988a",
    "n30-lambda:2-lossless": "a21b5dd5a122550cbea9",
    "n30-lambda:2-normal": "aa05c98cc66405605145",
    "n30-rand-lossless": "3a94d79c21701042e9ad",
    "n30-rand-normal": "2af59ec6d4d24b0f22f5",
    # Paths the matrix above leaves out: arbitrary trees, targeted protocols
    # and concurrent mode beyond n=10, uniform energies, short budgets.
    "n10-ideal-arbitrary": "1ab25a3b8819099765dd",
    "n10-ideal-uniform": "33d090d22a5ef105b3f7",
    "n10-lambda:2-arbitrary": "2de9985f4a9687861ea7",
    "n10-lambda:2-uniform": "d0c59ac28ef5f7bb0082",
    "n17-ideal-lossless": "0d36fb7c07c1441570e3",
    "n17-ideal-normal": "fe0c0471ca2ab1ccf1f7",
    "n17-kdepth:2-concurrent": "cd28d7d2f4bda21d18f2",
    "n17-kdepth:2-lossless": "105392f3eea95532bce5",
    "n17-kdepth:2-normal": "416a0875fd651ea20098",
    "n17-lambda:2-budget400": "8f692e95798df1cb8ed4",
    "n17-lambda:2-concurrent": "3e5387e09360f746f9cc",
    "n30-ideal-arbitrary": "ef225fb1d94f64c7f414",
    "n30-ideal-lossless": "56991f2ba8a2bbbd11e7",
    "n30-ideal-normal": "0d184853d6831c806dac",
    "n30-kdepth:2-concurrent": "73912b56258bfc00c2ac",
    "n30-kdepth:2-lossless": "7b80a2fab90ed4d3669e",
    "n30-kdepth:2-normal": "dbb7c160b8e03afceec2",
    "n30-lambda:2-arbitrary": "76b9ebe7507e814e9e13",
    "n30-lambda:2-budget60-concurrent": "18f9aa05210ac270c103",
    "n30-lambda:2-budget60-twophase": "7dc3c5196b00393f3bd9",
    "n30-lambda:2-concurrent": "46e27f58299c74b982bb",
}


def _not_json(constant: str):
    raise ValueError(f"summary.json holds {constant}, which JSON does not allow")


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_golden(name, tmp_path):
    digest = artifact_digest(CASES[name], tmp_path)
    # summary.json is strict JSON: an aggregate no run gave is null, not NaN.
    json.loads((tmp_path / "summary.json").read_text(), parse_constant=_not_json)
    assert digest == GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            print(f'    "{name}": "{artifact_digest(CASES[name], Path(tmp))}",')
