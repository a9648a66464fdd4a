"""Experiment T4: the Hercules bidding regression (Table IV, Section VII-A).

Two variants run:

* **Conceptual** (exactly the paper): OLS over the full 12-row table vs
  OLS over each of the three 4-row fragments; report the four equations
  and next-bid predictions.
* **End-to-end**: Hercules actually uploads ``bids.csv`` through the Cloud
  Data Distributor; the insider Hera at one provider salvages what her
  provider stores and mines that.  This grounds the paper's argument in
  the real system path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.mining.adversary import Adversary
from repro.mining.regression import RegressionModel, coefficient_distance, fit_linear
from repro.providers.registry import ProviderSpec, build_simulated_fleet
from repro.util.rng import SeedLike
from repro.workloads.bidding import (
    FEATURE_NAMES,
    PARSERS,
    BiddingDataset,
    generate_bidding_history,
    rows_from_salvaged,
    table_iv,
)

#: Next-year cost plan used to compare bid predictions across models.
NEXT_YEAR = np.array([[2000.0, 900.0, 3800.0]])


@dataclass
class Table4Result:
    full_model: RegressionModel
    fragment_models: list[RegressionModel]
    fragment_divergence: list[float]
    full_prediction: float
    fragment_predictions: list[float]
    insider_rows: int = 0
    insider_model: RegressionModel | None = None
    insider_divergence: float | None = None
    equations: list[str] = field(default_factory=list)


def table4_bidding_experiment(
    parts: int = 3,
    dataset: BiddingDataset | None = None,
    end_to_end: bool = True,
    end_to_end_rows: int = 150,
    seed: SeedLike = 40,
) -> Table4Result:
    """Run the Table IV experiment; see module docstring."""
    dataset = dataset or table_iv()
    full_model = fit_linear(dataset.features(), dataset.bids())
    fragment_models = [
        fit_linear(f.features(), f.bids()) for f in dataset.split_equally(parts)
    ]
    result = Table4Result(
        full_model=full_model,
        fragment_models=fragment_models,
        fragment_divergence=[
            coefficient_distance(full_model, m) for m in fragment_models
        ],
        full_prediction=float(full_model.predict(NEXT_YEAR)[0]),
        fragment_predictions=[
            float(m.predict(NEXT_YEAR)[0]) for m in fragment_models
        ],
    )
    result.equations = [
        "full:      " + full_model.equation(FEATURE_NAMES, target="Bid")
    ] + [
        f"fragment{i}: " + m.equation(FEATURE_NAMES, target="Bid")
        for i, m in enumerate(fragment_models)
    ]
    if not end_to_end:
        return result

    # End-to-end variant over the real distributor: a scaled bidding
    # history (same ground-truth model) is uploaded and the insider "Hera"
    # at one provider mines only what her provider stores.
    scaled = generate_bidding_history(end_to_end_rows, seed=seed)
    scaled_full = fit_linear(scaled.features(), scaled.bids())
    specs = [
        ProviderSpec("Titans" if i == 0 else f"CP{i}",
                     PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(parts)
    ]
    registry, _, _ = build_simulated_fleet(specs, seed=seed)
    # Chunks sized at ~1/parts of the file, single-copy RAID0 placement:
    # load balancing hands each provider one contiguous fragment, exactly
    # the paper's "distributes his data equally among 3 providers".
    blob = scaled.to_bytes()
    distributor = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy.uniform(-(-len(blob) // parts)),
        codec="raid0@1",
        seed=seed,
    )
    distributor.register_client("Hercules")
    distributor.add_password("Hercules", "pw", PrivacyLevel.PRIVATE)
    distributor.upload_file(
        "Hercules", "pw", "bids.csv", blob, PrivacyLevel.PRIVATE
    )
    insider = Adversary.insider(registry, "Titans")
    salvaged = insider.observe(PARSERS).rows
    result.insider_rows = len(salvaged)
    if len(salvaged) >= len(FEATURE_NAMES) + 1:
        recovered = rows_from_salvaged(salvaged)
        insider_model = fit_linear(recovered.features(), recovered.bids())
        result.insider_model = insider_model
        result.insider_divergence = coefficient_distance(scaled_full, insider_model)
    return result
