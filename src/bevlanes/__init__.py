"""Tile-grid 3D lane representation: encode/decode, losses, clustering,
synthetic scenes, and a MAP/lateral-error evaluation protocol in BEV."""

from .clustering import (ClusterParams, LaneInstance, assemble_curve, assign_clusters,
                         cluster_segments, greedy_baseline, mean_shift)
from .codec import (AngleBinSpec, SegmentSet, TilePredictionGrid, TileTargetGrid,
                    angle_to_soft_labels, decode_grid, encode_scene, saturated_prediction,
                    soft_labels_to_angle)
from .config import ConfigError, PipelineConfig
from .evaluation import (EvalConfig, EvalReport, SceneRecord, curve_iou, evaluate, footprint_iou,
                         lateral_error, range_means, rasterize_curve, score_scene, score_scenes)
from .geometry import Curve, GridSpec, Lane3D, tile_centers
from .io import SchemaError
from .losses import (ClusterSummary, EmbeddingParams, FiniteDiffReport, LossValueAndGrad,
                     angle_loss, embedding_loss, finite_diff_check, offsets_loss, pull_loss,
                     push_loss, score_loss, total_tile_loss)
from .pipeline import SceneResult, process_scene, run_pipeline
from .synth import (NoiseConfig, Scene, SceneConfig, SurfaceParams, generate_scene,
                    oracle_predict, simplex_anchors, surface_height)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
