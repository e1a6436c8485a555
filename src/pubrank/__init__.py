"""Publisher-ranking engine over book/chapter bibliographic corpora.

Pipeline: ingest JSONL records -> resolve publisher identities through a
variant/acquisition registry -> map subject categories to disciplines and
fields -> compute six indicators per (publisher, scope) -> threshold,
order, and export ranking tables and publisher profiles.

The package root carries the pipeline's entry points; every other name
lives in its module (corpus, registry, taxonomy, indicators, ranking,
report, cli, testkit, samples, errors). The root does not import
`testkit`, the corpus generator and oracle, so only `synth` loads it.
"""

from .indicators import Scope
from .report import RunConfig, run_pipeline, run_rank
from .samples import sample_taxonomy_path

__version__ = "0.1.0"
