"""Tile-grid 3D lane representation: encode/decode, losses, clustering,
synthetic scenes, and a MAP/lateral-error evaluation protocol in BEV."""

from .clustering import (ClusterParams, Curve, LaneInstance, assemble_curve,
                         assign_clusters, cluster_segments, greedy_baseline, mean_shift)
from .codec import (AngleBinSpec, LaneSegment, TilePredictionGrid, TileTargetGrid,
                    angle_to_soft_labels, decode_grid, encode_scene, saturated_prediction,
                    soft_labels_to_angle)
from .config import ConfigError, PipelineConfig
from .evaluation import (EvalConfig, EvalReport, curve_iou, evaluate, lateral_error,
                         match_and_ap, rasterize_curve)
from .geometry import CameraRig, GridSpec, Lane3D, tile_bounds, tile_center, tile_centers
from .io import SchemaError
from .losses import (ClusterSummary, EmbeddingParams, FiniteDiffReport, LossValueAndGrad,
                     angle_loss, embedding_loss, finite_diff_check, offsets_loss, pull_loss,
                     push_loss, score_loss, total_tile_loss)
from .pipeline import SceneResult, process_scene, run_pipeline
from .synth import (NoiseConfig, Scene, SceneConfig, SurfaceParams, generate_scene,
                    oracle_predict, simplex_anchors, surface_height)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
