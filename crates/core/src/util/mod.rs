//! Small self-contained utilities used by the schedule algorithms.

mod edge_coloring;

pub use edge_coloring::color_bipartite_multigraph;
