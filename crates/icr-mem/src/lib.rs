//! Cache and memory-hierarchy substrate for the ICR reproduction.
//!
//! The paper evaluates ICR inside a SimpleScalar machine whose memory
//! system is: split 16KB L1s, a unified 256KB 4-way L2 (6-cycle), and
//! 100-cycle main memory (Table 1). This crate provides everything in that
//! picture *except* the data L1:
//!
//! * [`CacheGeometry`]/[`Addr`]/[`BlockAddr`] — address arithmetic,
//!   including the `distance-k` set arithmetic ICR's replica placement
//!   uses;
//! * [`LruArray`] — recency ordering of every set of a cache in one flat
//!   array, with the restricted ("LRU among dead blocks only") victim
//!   queries ICR needs;
//! * [`DataBlock`] — one block's words, stored inline up to the block
//!   bound [`MAX_BLOCK_BYTES`];
//! * [`Cache`] — a generic set-associative write-back cache with real data
//!   storage in flat arrays, used for the L2 and instruction L1;
//! * [`MainMemory`] — deterministic-content main memory;
//! * [`WriteBuffer`] — the 8-entry coalescing write buffer of the paper's
//!   write-through comparison (§5.8);
//! * [`MemoryBackend`]/[`InstrCache`] — the assembled hierarchy below and
//!   beside the data L1.
//!
//! Every data-L1 variant (BaseP, BaseECC and the ten ICR schemes) lives in
//! the `icr-core` crate and plugs into [`MemoryBackend`].
//!
//! Nothing here allocates per simulated access: blocks are `Copy` values,
//! and every cache keeps its tags, flags, words and recency in a few flat
//! arrays sized once at construction.

pub mod addr;
pub mod block;
pub mod cache;
pub mod hierarchy;
pub mod lru;
pub mod memory;
pub mod stats;
pub mod write_buffer;

pub use addr::{Addr, BlockAddr, CacheGeometry, SetIndex};
pub use block::{splitmix64, DataBlock, MAX_BLOCK_BYTES};
pub use cache::{AccessKind, Cache, Evicted};
pub use hierarchy::{HierarchyConfig, InstrCache, L2ReplicaRegion, MemoryBackend, RegionInsert};
pub use lru::LruArray;
pub use memory::{MainMemory, RowBufferConfig};
pub use stats::CacheStats;
pub use write_buffer::WriteBuffer;
