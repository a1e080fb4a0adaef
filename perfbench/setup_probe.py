"""What every CLI call pays before stage 1, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD CONFIG.json SEED

Imports instructsmith, parses the workload config and builds its backends,
then exits. ``run.py`` times the whole process from the outside.
"""

import json
import sys


def main() -> int:
    name, config_path, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    import instructsmith
    from instructsmith.embedding import make_embedding_backend

    import workloads

    with open(config_path, encoding="utf-8") as fh:
        config = instructsmith.PipelineConfig.from_dict(json.load(fh))
    workloads.build_backends(name, config, seed)
    make_embedding_backend(config.embedding_backend)
    return 0


if __name__ == "__main__":
    sys.exit(main())
