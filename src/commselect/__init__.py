"""Weighted community-detection benchmarks, detectors, and algorithm-class
selection from observable clustering features."""

from .graph import (Graph, Partition, load_edge_list, load_partition,
                    parse_edge_list, parse_partition, save_edge_list,
                    save_partition, with_unit_weights, write_edge_list,
                    write_partition)
from .lfr import (GenParams, GenerationError, PlantedNetwork, assign_weights,
                  build_topology, generate, measured_mixing,
                  sample_community_sizes, sample_truncated_power_law,
                  solve_k_min)
from .metrics import local_clustering, mean_clustering, modularity, nmi
from .copra import CopraConfig, propagate_step, run_once
from .copra import detect as copra_detect
from .infomap import InfomapConfig, map_equation, visit_rates
from .infomap import detect as infomap_detect
from .selector import (BinarySVM, ClassLabel, FeatureVector, SelectorModel,
                       SvmHyper, class_to_run, decision_margins,
                       extract_features, label_network, load_model, predict,
                       save_model, train_binary, train_selector)
from .harness import (ALGORITHM_ORDER, SweepConfig, aggregate_rows,
                      collect_networks, report_selection, run_algorithm,
                      run_sweep, train_eval)

__version__ = "0.1.0"
