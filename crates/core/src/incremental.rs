//! Incremental per-nest re-analysis.
//!
//! The batch driver memoizes at whole-function granularity: any edit,
//! however local, re-runs SSA construction and classification for the
//! entire function. This module refines the granularity to **top-level
//! loop nests**. A function is partitioned into
//!
//! - a **skeleton** — every block outside any top-level natural loop
//!   (parameter setup, init code between nests, epilogue), and
//! - one **region** per top-level nest — the nest's blocks, including
//!   all inner loops.
//!
//! Each region gets a **region hash** extending the structural-hash
//! machinery of [`crate::batch`]: a position-independent digest of the
//! skeleton, the nest's own blocks, and the blocks of every nest it
//! (transitively) depends on through scalar or array dataflow. Variables
//! are numbered by first occurrence in the skeleton so the binding
//! between init code and nest stays part of the key; blocks are numbered
//! by rank within their region so an edit that grows one nest does not
//! shift the hashes of its neighbors.
//!
//! [`analyze_incremental`] then re-runs SSA construction and
//! classification only for nests whose region hash missed the cache. A
//! changed nest is analyzed on a **compacted slice** of the function:
//! the nest and its dependency nests, plus only the skeleton
//! instructions their classification can observe. Every other nest is
//! elided (its header becomes a jump stub to its unique exit target and
//! is contracted away), skeleton code feeding only elided nests is
//! pruned, and blocks, variables, and arrays are renumbered densely —
//! so re-analysis cost scales with the edited nest, not the function.
//! A **roster** component in every region hash (nest count, headers,
//! exit targets) pins the slice shape, so adding or removing a nest
//! invalidates everything rather than splicing stale summaries.
//! Unchanged nests splice their cached summaries back in, so a
//! one-nest edit on an N-nest function costs one slice analysis instead
//! of N.
//!
//! Correctness invariant (pinned by the property suite): a warm
//! [`IncrementalState`] produces byte-identical
//! [`IncrementalReport::render_nests`] output to a cold one for the same
//! input, for every mutation sequence. Deadline-degraded summaries are
//! never cached (same [`StructuralSummary::cacheable`] gate as the batch
//! driver), so nondeterministic degradation cannot be spliced back in.
//!
//! Functions that defeat slicing — a nest with several distinct exit
//! targets, or no loops at all — degrade to a single whole-function
//! region keyed by [`structural_hash`]: still memoized, just not
//! incremental.

use std::collections::HashSet;
use std::sync::Arc;

use biv_ir::dom::DomTree;
use biv_ir::loops::LoopForest;
use biv_ir::{Array, Block, EntityId, Function, Inst, Operand, Terminator, Var};

use crate::batch::{
    render_summary_body, structural_hash, summarize, summarize_filtered, StructuralCache,
    StructuralSummary,
};
use crate::config::AnalysisConfig;

/// Sentinel for "block is in the skeleton, not in any nest".
const NO_NEST: u32 = u32::MAX;

/// One top-level loop nest of a function, with its region hash.
#[derive(Debug, Clone)]
pub struct NestRegion {
    /// Display name (the header's source label when present).
    pub name: String,
    /// The nest's header block.
    pub header: Block,
    /// The region hash: skeleton + this nest + its dependency nests.
    pub region_hash: u64,
    /// The nest's blocks (including inner loops), sorted by index.
    blocks: Vec<Block>,
    /// Ordinals of nests this one transitively depends on, sorted.
    deps: Vec<usize>,
    /// The single block every exit edge targets; `None` when the nest
    /// has no exit edges at all (code after it is unreachable).
    exit_target: Option<Block>,
}

impl NestRegion {
    /// The nest's blocks (including inner-loop blocks), sorted by index.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Ordinals of the nests this one transitively depends on.
    pub fn deps(&self) -> &[usize] {
        &self.deps
    }
}

/// The per-nest region partition of a function.
#[derive(Debug, Clone)]
pub struct RegionMap {
    /// Top-level nests in header-block order.
    pub nests: Vec<NestRegion>,
    /// Block index → owning nest ordinal ([`NO_NEST`] for skeleton).
    nest_of_block: Vec<u32>,
    /// Whether per-nest slicing is possible; when `false`, callers must
    /// fall back to whole-function analysis.
    sliceable: bool,
}

impl RegionMap {
    /// Partitions `func` into skeleton + top-level nest regions and
    /// computes every region hash. One linear pass over the function
    /// (plus dominator-tree and loop-forest construction).
    pub fn compute(func: &Function) -> RegionMap {
        let cfg = biv_ir::cfg::Cfg::compute(func);
        let dom = DomTree::compute_with(func, &cfg);
        let forest = LoopForest::compute_with(func, &dom, &cfg);
        let nblocks = func.blocks.len();

        // Top-level nests in header-block order.
        let mut tops: Vec<_> = forest.iter().filter(|(_, d)| d.parent.is_none()).collect();
        tops.sort_by_key(|(_, d)| d.header.index());

        let mut nest_of_block = vec![NO_NEST; nblocks];
        for (ordinal, (_, data)) in tops.iter().enumerate() {
            for &b in &data.blocks {
                nest_of_block[b.index()] = ordinal as u32;
            }
        }

        let mut sliceable = true;
        // Slices drop the interior blocks of elided nests, so they are
        // only well formed when control enters a nest through its
        // header and the entry block belongs to the skeleton.
        if nest_of_block[func.entry().index()] != NO_NEST {
            sliceable = false;
        }
        for (b, data) in func.blocks.iter() {
            let from = nest_of_block[b.index()];
            for s in data.term.successors() {
                let to = nest_of_block[s.index()];
                if to != NO_NEST && to != from && s != tops[to as usize].1.header {
                    sliceable = false;
                }
            }
        }
        let mut nests: Vec<NestRegion> = Vec::with_capacity(tops.len());
        for (l, data) in &tops {
            let mut blocks = data.blocks.clone();
            blocks.sort_by_key(|b| b.index());
            // Every exit edge must share one target, or the nest cannot
            // be replaced by a stub jump when another nest is analyzed.
            let mut exit_target = None;
            for (_, to) in forest.exit_edges(func, *l) {
                match exit_target {
                    None => exit_target = Some(to),
                    Some(t) if t == to => {}
                    Some(_) => sliceable = false,
                }
            }
            nests.push(NestRegion {
                name: forest.name(func, *l),
                header: data.header,
                region_hash: 0,
                blocks,
                deps: Vec::new(),
                exit_target,
            });
        }

        let mut regions = RegionMap {
            nests,
            nest_of_block,
            sliceable,
        };
        if regions.sliceable && !regions.nests.is_empty() {
            regions.compute_deps(func);
            regions.compute_hashes(func);
        }
        regions
    }

    /// Whether per-nest slicing applies (at least one nest, unique exit
    /// targets everywhere).
    pub fn is_sliceable(&self) -> bool {
        self.sliceable && !self.nests.is_empty()
    }

    /// The nest ordinal owning `block`, if any.
    pub fn nest_of(&self, block: Block) -> Option<usize> {
        match self.nest_of_block.get(block.index()) {
            Some(&n) if n != NO_NEST => Some(n as usize),
            _ => None,
        }
    }

    /// Scalar- and array-dataflow dependencies between nests, closed
    /// transitively: a nest depends on every nest that writes a variable
    /// or array it reads.
    ///
    /// Dense throughout — (entity, nest) contact pairs deduplicated by
    /// stamp arrays, writer lookup as CSR, closure with a per-nest visit
    /// stamp — because this runs on every [`analyze_incremental`] call
    /// and hash-map traffic here dominated the warm-update budget.
    fn compute_deps(&mut self, func: &Function) {
        let n = self.nests.len();
        let nvars = func.vars.len();
        let narrays = func.arrays.len();
        // Deduplicated (entity, nest) contact pairs. Nests are scanned
        // one at a time, so stamping an entity's mark with the current
        // ordinal dedupes without clearing between nests.
        let mut var_reads: Vec<(u32, u32)> = Vec::new();
        let mut var_writes: Vec<(u32, u32)> = Vec::new();
        let mut arr_reads: Vec<(u32, u32)> = Vec::new();
        let mut arr_writes: Vec<(u32, u32)> = Vec::new();
        let mut read_mark = vec![NO_NEST; nvars];
        let mut write_mark = vec![NO_NEST; nvars];
        let mut aread_mark = vec![NO_NEST; narrays];
        let mut awrite_mark = vec![NO_NEST; narrays];
        let mut scratch = Vec::new();
        for (m, nest) in self.nests.iter().enumerate() {
            let m32 = m as u32;
            let mut note_reads = |scratch: &[Var], read_mark: &mut [u32]| {
                for v in scratch {
                    let i = v.index();
                    if read_mark[i] != m32 {
                        read_mark[i] = m32;
                        var_reads.push((i as u32, m32));
                    }
                }
            };
            for &b in &nest.blocks {
                let data = &func.blocks[b];
                for inst in &data.insts {
                    scratch.clear();
                    inst.uses(&mut scratch);
                    note_reads(&scratch, &mut read_mark);
                    if let Some(v) = inst.def() {
                        let i = v.index();
                        if write_mark[i] != m32 {
                            write_mark[i] = m32;
                            var_writes.push((i as u32, m32));
                        }
                    }
                    match inst {
                        Inst::Load { array, .. } => {
                            let i = array.index();
                            if aread_mark[i] != m32 {
                                aread_mark[i] = m32;
                                arr_reads.push((i as u32, m32));
                            }
                        }
                        Inst::Store { array, .. } => {
                            let i = array.index();
                            if awrite_mark[i] != m32 {
                                awrite_mark[i] = m32;
                                arr_writes.push((i as u32, m32));
                            }
                        }
                        _ => {}
                    }
                }
                scratch.clear();
                data.term.uses(&mut scratch);
                note_reads(&scratch, &mut read_mark);
            }
        }
        // CSR over writers: entity → the nests writing it.
        let build_csr = |pairs: &[(u32, u32)], entities: usize| {
            let mut off = vec![0u32; entities + 1];
            for &(e, _) in pairs {
                off[e as usize + 1] += 1;
            }
            for i in 0..entities {
                off[i + 1] += off[i];
            }
            let mut data = vec![0u32; pairs.len()];
            let mut cursor = off.clone();
            for &(e, m) in pairs {
                data[cursor[e as usize] as usize] = m;
                cursor[e as usize] += 1;
            }
            (off, data)
        };
        let (voff, vdata) = build_csr(&var_writes, nvars);
        let (aoff, adata) = build_csr(&arr_writes, narrays);
        // Direct edges reader → writer. `edge_mark[w]` stamped with the
        // reading nest dedupes within each pass; the rare duplicate that
        // survives across the var/array passes is harmless (the closure
        // below dedupes visits anyway).
        let mut direct: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut edge_mark = vec![NO_NEST; n];
        let mut add_edges = |pairs: &[(u32, u32)], off: &[u32], data: &[u32]| {
            for &(e, m) in pairs {
                let (lo, hi) = (off[e as usize] as usize, off[e as usize + 1] as usize);
                for &w in &data[lo..hi] {
                    if w != m && edge_mark[w as usize] != m {
                        edge_mark[w as usize] = m;
                        direct[m as usize].push(w);
                    }
                }
            }
        };
        add_edges(&var_reads, &voff, &vdata);
        add_edges(&arr_reads, &aoff, &adata);
        // Transitive closure by DFS, one visit stamp per origin nest.
        let mut vis = vec![NO_NEST; n];
        let mut stack: Vec<u32> = Vec::new();
        for m in 0..n {
            let m32 = m as u32;
            stack.clear();
            stack.extend_from_slice(&direct[m]);
            let mut deps: Vec<usize> = Vec::new();
            while let Some(d) = stack.pop() {
                let du = d as usize;
                if du == m || vis[du] == m32 {
                    continue;
                }
                vis[du] = m32;
                deps.push(du);
                stack.extend_from_slice(&direct[du]);
            }
            deps.sort_unstable();
            self.nests[m].deps = deps;
        }
    }

    /// Computes the skeleton hash, every per-nest structural hash, and
    /// from them every region hash.
    fn compute_hashes(&mut self, func: &Function) {
        let nblocks = func.blocks.len();
        // Rank of each block within its region, so hashes survive index
        // shifts caused by edits elsewhere in the function.
        let mut rank = vec![0u32; nblocks];
        let mut skel_next = 0u32;
        let mut nest_next = vec![0u32; self.nests.len()];
        for (b, _) in func.blocks.iter() {
            let i = b.index();
            match self.nest_of_block[i] {
                NO_NEST => {
                    rank[i] = skel_next;
                    skel_next += 1;
                }
                m => {
                    rank[i] = nest_next[m as usize];
                    nest_next[m as usize] += 1;
                }
            }
        }
        // One packed word per target: (nest ordinal | rank) with a
        // skeleton/nest tag in the low bit. Nest ordinals and ranks
        // both fit u32, so the packing is exact.
        let encode_target = |h: &mut Mix64, b: Block| {
            let i = b.index();
            match self.nest_of_block[i] {
                NO_NEST => h.write_u64(u64::from(rank[i]) << 1),
                m => h.write_u64((u64::from(m) << 32 | u64::from(rank[i])) << 1 | 1),
            }
        };

        // Skeleton canonical numbering: parameters first, then first
        // occurrence over skeleton blocks in index order. This binds a
        // nest to the init code feeding it: two structurally identical
        // nests reading different skeleton variables hash differently.
        let mut canon = SkeletonCanon::new(func);
        for &p in func.params() {
            canon.var(p);
        }
        let mut skel = Mix64::new();
        skel.write_usize(func.params().len());
        for (b, data) in func.blocks.iter() {
            if self.nest_of_block[b.index()] != NO_NEST {
                continue;
            }
            skel.write_u64(u64::from(rank[b.index()]));
            hash_label(&mut skel, data.label.as_deref());
            skel.write_usize(data.insts.len());
            for inst in &data.insts {
                hash_inst(&mut skel, &mut canon, inst);
            }
            hash_term(&mut skel, &mut canon, &data.term, &encode_target);
        }
        let skeleton_hash = skel.finish();

        // Per-nest structural hashes over the frozen skeleton numbering;
        // nest-private variables get a local overlay.
        let mut nest_hashes = Vec::with_capacity(self.nests.len());
        let mut local = NestCanon::new(&canon);
        for nest in &self.nests {
            local.next_nest();
            let mut h = Mix64::new();
            for &b in &nest.blocks {
                let data = &func.blocks[b];
                h.write_u64(u64::from(rank[b.index()]));
                hash_label(&mut h, data.label.as_deref());
                h.write_usize(data.insts.len());
                for inst in &data.insts {
                    hash_inst(&mut h, &mut local, inst);
                }
                hash_term(&mut h, &mut local, &data.term, &encode_target);
            }
            nest_hashes.push(h.finish());
        }

        // The nest roster pins the slice shape: how many top-level
        // nests exist, their headers, and where each one exits. Adding
        // or removing a nest rebuilds every slice (stub placement,
        // block numbering), so it must invalidate every region even
        // when skeleton and member hashes are unchanged.
        let mut roster = Mix64::new();
        roster.write_usize(self.nests.len());
        for (m, nest) in self.nests.iter().enumerate() {
            roster.write_usize(m);
            hash_label(&mut roster, func.blocks[nest.header].label.as_deref());
            match nest.exit_target {
                Some(t) => {
                    roster.write_u8(1);
                    encode_target(&mut roster, t);
                }
                None => roster.write_u8(0),
            }
        }
        let roster_hash = roster.finish();

        // Region hash: skeleton + roster + dependency-closure nests +
        // the nest itself (repeated last, marking which member is
        // primary).
        let mut members: Vec<usize> = Vec::new();
        for k in 0..self.nests.len() {
            let mut h = Mix64::new();
            h.write_u64(skeleton_hash);
            h.write_u64(roster_hash);
            h.write_usize(self.nests[k].deps.len() + 1);
            members.clear();
            members.extend_from_slice(&self.nests[k].deps);
            members.push(k);
            members.sort_unstable();
            for &m in &members {
                h.write_u64(nest_hashes[m]);
            }
            h.write_u64(nest_hashes[k]);
            self.nests[k].region_hash = h.finish();
        }
    }

    /// Builds the compacted slice for analyzing nest `primary`: the
    /// function restricted to what the nest's classification can
    /// observe. Nests outside `primary`'s dependency closure are
    /// elided entirely (their headers become jump stubs to their exit
    /// target and are then contracted away); skeleton instructions
    /// whose defs no kept nest or surviving terminator (transitively)
    /// reads are pruned, and skeleton blocks emptied by that pruning
    /// are contracted too. Blocks, variables, and arrays are
    /// renumbered densely, so analysis cost scales with the slice, not
    /// the original function.
    ///
    /// Slice construction is a pure function of the skeleton content,
    /// the closure nests' content, and the nest roster — exactly the
    /// inputs folded into [`NestRegion::region_hash`] — so equal
    /// region hashes yield byte-identical slices and summaries.
    ///
    /// # Panics
    ///
    /// Panics when the map is not sliceable or `primary` is out of range.
    pub fn slice(&self, func: &Function, primary: usize) -> FunctionSlice {
        assert!(self.is_sliceable(), "slice() needs a sliceable region map");
        let n = self.nests.len();
        let nblocks = func.blocks.len();
        let nvars = func.vars.len();
        let entry = func.entry();
        let mut kept_nest = vec![false; n];
        kept_nest[primary] = true;
        for &d in &self.nests[primary].deps {
            kept_nest[d] = true;
        }

        // Which variables must keep their defining skeleton code:
        // seeded from kept-nest uses and every surviving terminator,
        // closed backward through skeleton defs.
        let mut needed = vec![false; nvars];
        let mut scratch: Vec<Var> = Vec::new();
        for (b, data) in func.blocks.iter() {
            let owner = self.nest_of_block[b.index()];
            if owner != NO_NEST && !kept_nest[owner as usize] {
                continue; // elided: the stub reads nothing
            }
            if owner != NO_NEST {
                for inst in &data.insts {
                    scratch.clear();
                    inst.uses(&mut scratch);
                    for v in &scratch {
                        needed[v.index()] = true;
                    }
                }
            }
            scratch.clear();
            data.term.uses(&mut scratch);
            for v in &scratch {
                needed[v.index()] = true;
            }
        }
        loop {
            let mut changed = false;
            for (b, data) in func.blocks.iter() {
                if self.nest_of_block[b.index()] != NO_NEST {
                    continue;
                }
                for inst in &data.insts {
                    let Some(d) = inst.def() else { continue };
                    if !needed[d.index()] {
                        continue;
                    }
                    scratch.clear();
                    inst.uses(&mut scratch);
                    for v in &scratch {
                        if !needed[v.index()] {
                            needed[v.index()] = true;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // A skeleton instruction survives iff its def is needed (stores
        // never are: no kept nest's scalar classification reads memory
        // the skeleton wrote).
        let keep_skel_inst =
            |inst: &Inst| -> bool { inst.def().is_some_and(|d| needed[d.index()]) };

        // Forwarder marking: blocks reduced to a bare unconditional
        // jump get contracted out of the CFG. Covers elided-nest stub
        // headers with a known exit, and skeleton blocks emptied by
        // pruning — but not blocks that were empty jumps to begin
        // with, so a slice that keeps everything stays byte-identical
        // to the original function.
        let mut forward: Vec<Option<Block>> = vec![None; nblocks];
        for (b, data) in func.blocks.iter() {
            let i = b.index();
            match self.nest_of_block[i] {
                NO_NEST => {
                    if b == entry || data.insts.is_empty() {
                        continue;
                    }
                    let Terminator::Jump(t) = data.term else {
                        continue;
                    };
                    if !data.insts.iter().any(keep_skel_inst) {
                        forward[i] = Some(t);
                    }
                }
                m if kept_nest[m as usize] => {}
                m => {
                    let nest = &self.nests[m as usize];
                    if b == nest.header {
                        if let Some(t) = nest.exit_target {
                            forward[i] = Some(t);
                        }
                        // No exit target: the stub stays as a return
                        // sink. Interior blocks are only reachable
                        // through the header, so they simply drop.
                    }
                }
            }
        }
        // Resolve forwarder chains to their final target, memoized,
        // with a cycle guard (a cycle of empty jumps — only possible in
        // unreachable code — keeps one member as a self-loop).
        let mut resolved: Vec<Option<Block>> = vec![None; nblocks];
        let mut on_walk = vec![u32::MAX; nblocks];
        let mut path: Vec<usize> = Vec::new();
        for start in 0..nblocks {
            if forward[start].is_none() || resolved[start].is_some() {
                continue;
            }
            path.clear();
            let mut cur = start;
            let final_target;
            loop {
                on_walk[cur] = start as u32;
                path.push(cur);
                let t = forward[cur].expect("walk only visits forwarders");
                let ti = t.index();
                if let Some(r) = resolved[ti] {
                    final_target = r;
                    break;
                }
                if forward[ti].is_none() {
                    final_target = t;
                    break;
                }
                if on_walk[ti] == start as u32 {
                    forward[ti] = None;
                    final_target = t;
                    break;
                }
                cur = ti;
            }
            for &p in &path {
                if forward[p].is_some() {
                    resolved[p] = Some(final_target);
                }
            }
        }
        let retarget = |b: Block| resolved[b.index()].unwrap_or(b);

        // Reachability from the entry over retargeted edges: forwarder
        // blocks and elided interiors fall out here.
        let mut reach = vec![false; nblocks];
        let mut queue: Vec<Block> = vec![entry];
        reach[entry.index()] = true;
        while let Some(b) = queue.pop() {
            let owner = self.nest_of_block[b.index()];
            if owner != NO_NEST && !kept_nest[owner as usize] {
                continue; // surviving stub headers end in a bare return
            }
            for s in func.blocks[b].term.successors() {
                let r = retarget(s);
                if !reach[r.index()] {
                    reach[r.index()] = true;
                    queue.push(r);
                }
            }
        }

        // Materialize the compacted function: blocks in original index
        // order, parameters first, variables and arrays renumbered by
        // first occurrence.
        let mut out = Function::new(func.name());
        let mut new_block = vec![NO_NEST; nblocks];
        let mut order: Vec<Block> = Vec::new();
        for (b, _) in func.blocks.iter() {
            if !reach[b.index()] {
                continue;
            }
            let nb = if b == entry {
                out.entry()
            } else {
                out.new_block()
            };
            new_block[b.index()] = nb.index() as u32;
            order.push(b);
        }
        let mut var_map = vec![NONE_ID; nvars];
        for &p in func.params() {
            var_map[p.index()] = out.new_param(func.vars[p].name.clone()).index() as u32;
        }
        let mut array_map = vec![NONE_ID; func.arrays.len()];
        for &b in &order {
            let i = b.index();
            let nb = Block::from_index(new_block[i] as usize);
            let data = &func.blocks[b];
            out.blocks[nb].label = data.label.clone();
            let owner = self.nest_of_block[i];
            if owner != NO_NEST && !kept_nest[owner as usize] {
                out.blocks[nb].term = Terminator::Return;
                continue;
            }
            let keep_all = owner != NO_NEST;
            let mut insts = Vec::new();
            for inst in &data.insts {
                if keep_all || keep_skel_inst(inst) {
                    insts.push(remap_inst(
                        inst,
                        func,
                        &mut out,
                        &mut var_map,
                        &mut array_map,
                    ));
                }
            }
            let term = remap_term(&data.term, func, &mut out, &mut var_map, |t| {
                Block::from_index(new_block[retarget(t).index()] as usize)
            });
            out.blocks[nb].insts = insts;
            out.blocks[nb].term = term;
        }
        let keep: HashSet<Block> = self.nests[primary]
            .blocks
            .iter()
            .filter(|b| reach[b.index()])
            .map(|b| Block::from_index(new_block[b.index()] as usize))
            .collect();
        FunctionSlice { func: out, keep }
    }
}

/// A compacted analysis slice for one nest, as built by
/// [`RegionMap::slice`].
#[derive(Debug, Clone)]
pub struct FunctionSlice {
    /// The compacted function.
    pub func: Function,
    /// The primary nest's blocks under `func`'s numbering — the filter
    /// set for [`summarize_filtered`]-style loop selection.
    pub keep: HashSet<Block>,
}

/// Remaps a variable into the slice, allocating on first occurrence.
fn map_var(v: Var, func: &Function, out: &mut Function, var_map: &mut [u32]) -> Var {
    let i = v.index();
    if var_map[i] == NONE_ID {
        var_map[i] = out.new_var(func.vars[v].name.clone()).index() as u32;
    }
    Var::from_index(var_map[i] as usize)
}

/// Remaps an array into the slice, allocating on first occurrence.
fn map_array(a: Array, func: &Function, out: &mut Function, array_map: &mut [u32]) -> Array {
    let i = a.index();
    if array_map[i] == NONE_ID {
        let data = &func.arrays[a];
        array_map[i] = out.new_array(data.name.clone(), data.dims).index() as u32;
    }
    Array::from_index(array_map[i] as usize)
}

fn map_operand(op: &Operand, func: &Function, out: &mut Function, var_map: &mut [u32]) -> Operand {
    match op {
        Operand::Var(v) => Operand::Var(map_var(*v, func, out, var_map)),
        Operand::Const(c) => Operand::Const(*c),
    }
}

fn remap_inst(
    inst: &Inst,
    func: &Function,
    out: &mut Function,
    var_map: &mut [u32],
    array_map: &mut [u32],
) -> Inst {
    match inst {
        Inst::Copy { dst, src } => Inst::Copy {
            src: map_operand(src, func, out, var_map),
            dst: map_var(*dst, func, out, var_map),
        },
        Inst::Neg { dst, src } => Inst::Neg {
            src: map_operand(src, func, out, var_map),
            dst: map_var(*dst, func, out, var_map),
        },
        Inst::Binary { dst, op, lhs, rhs } => Inst::Binary {
            op: *op,
            lhs: map_operand(lhs, func, out, var_map),
            rhs: map_operand(rhs, func, out, var_map),
            dst: map_var(*dst, func, out, var_map),
        },
        Inst::Load { dst, array, index } => Inst::Load {
            array: map_array(*array, func, out, array_map),
            index: index
                .iter()
                .map(|op| map_operand(op, func, out, var_map))
                .collect(),
            dst: map_var(*dst, func, out, var_map),
        },
        Inst::Store {
            array,
            index,
            value,
        } => Inst::Store {
            array: map_array(*array, func, out, array_map),
            index: index
                .iter()
                .map(|op| map_operand(op, func, out, var_map))
                .collect(),
            value: map_operand(value, func, out, var_map),
        },
    }
}

fn remap_term(
    term: &Terminator,
    func: &Function,
    out: &mut Function,
    var_map: &mut [u32],
    map_block: impl Fn(Block) -> Block,
) -> Terminator {
    match term {
        Terminator::Jump(b) => Terminator::Jump(map_block(*b)),
        Terminator::Branch {
            op,
            lhs,
            rhs,
            then_bb,
            else_bb,
        } => Terminator::Branch {
            op: *op,
            lhs: map_operand(lhs, func, out, var_map),
            rhs: map_operand(rhs, func, out, var_map),
            then_bb: map_block(*then_bb),
            else_bb: map_block(*else_bb),
        },
        Terminator::Return => Terminator::Return,
    }
}

/// Canonical ids for operands: variable and array identity by first
/// occurrence, shared between the skeleton pass and the per-nest passes.
trait CanonIds {
    fn var(&mut self, v: Var) -> u64;
    fn array(&mut self, a: Array) -> u64;
}

/// Sentinel for "entity has no canonical id yet" in the dense tables.
const NONE_ID: u32 = u32::MAX;

/// Word-at-a-time structural hasher for region hashing. Region hashes
/// are in-memory cache keys (never persisted, never rendered into
/// golden output), so this trades FNV's byte-serial multiply chain for
/// one xor-multiply-rotate step per word plus a splitmix-style final
/// avalanche — hashing is on the per-edit hot path and dominated
/// [`RegionMap::compute`] under the byte-at-a-time hasher.
///
/// Words alternate between two independent lanes so consecutive
/// multiplies overlap instead of forming one serial dependency chain;
/// `finish` folds the lanes and the word count together before the
/// avalanche, so sequences of different lengths (and the same words
/// split differently across lanes) stay distinct.
struct Mix64 {
    lanes: [u64; 2],
    words: u64,
}

impl Mix64 {
    fn new() -> Mix64 {
        Mix64 {
            lanes: [0x9E37_79B9_7F4A_7C15, 0xC2B2_AE3D_27D4_EB4F],
            words: 0,
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let lane = &mut self.lanes[(self.words & 1) as usize];
        *lane = (*lane ^ v)
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .rotate_left(23);
        self.words += 1;
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn finish(&self) -> u64 {
        let mut z = self.lanes[0] ^ self.lanes[1].rotate_left(32) ^ self.words;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// First-occurrence numbering built while hashing the skeleton, backed
/// by dense per-arena tables (entity index → canonical id).
struct SkeletonCanon {
    vars: Vec<u32>,
    arrays: Vec<u32>,
    next_var: u32,
    next_array: u32,
}

impl SkeletonCanon {
    fn new(func: &Function) -> SkeletonCanon {
        SkeletonCanon {
            vars: vec![NONE_ID; func.vars.len()],
            arrays: vec![NONE_ID; func.arrays.len()],
            next_var: 0,
            next_array: 0,
        }
    }
}

impl CanonIds for SkeletonCanon {
    fn var(&mut self, v: Var) -> u64 {
        let slot = &mut self.vars[v.index()];
        if *slot == NONE_ID {
            *slot = self.next_var;
            self.next_var += 1;
        }
        u64::from(*slot)
    }

    fn array(&mut self, a: Array) -> u64 {
        let slot = &mut self.arrays[a.index()];
        if *slot == NONE_ID {
            *slot = self.next_array;
            self.next_array += 1;
        }
        u64::from(*slot)
    }
}

/// The frozen skeleton numbering plus a nest-local overlay, offset so
/// skeleton-bound and nest-private identities can never collide. Epoch
/// stamps reset the overlay between nests without reallocating.
struct NestCanon<'a> {
    skeleton: &'a SkeletonCanon,
    var_epoch: Vec<u32>,
    var_id: Vec<u32>,
    array_epoch: Vec<u32>,
    array_id: Vec<u32>,
    epoch: u32,
    next_var: u32,
    next_array: u32,
}

const LOCAL_CANON_BASE: u64 = 1 << 32;

impl<'a> NestCanon<'a> {
    fn new(skeleton: &'a SkeletonCanon) -> NestCanon<'a> {
        NestCanon {
            skeleton,
            var_epoch: vec![0; skeleton.vars.len()],
            var_id: vec![0; skeleton.vars.len()],
            array_epoch: vec![0; skeleton.arrays.len()],
            array_id: vec![0; skeleton.arrays.len()],
            epoch: 0,
            next_var: 0,
            next_array: 0,
        }
    }

    /// Starts a fresh overlay for the next nest (epoch 0 is never used,
    /// so stale stamps can't match).
    fn next_nest(&mut self) {
        self.epoch += 1;
        self.next_var = 0;
        self.next_array = 0;
    }
}

impl CanonIds for NestCanon<'_> {
    fn var(&mut self, v: Var) -> u64 {
        let i = v.index();
        let skel = self.skeleton.vars[i];
        if skel != NONE_ID {
            return u64::from(skel);
        }
        if self.var_epoch[i] != self.epoch {
            self.var_epoch[i] = self.epoch;
            self.var_id[i] = self.next_var;
            self.next_var += 1;
        }
        LOCAL_CANON_BASE + u64::from(self.var_id[i])
    }

    fn array(&mut self, a: Array) -> u64 {
        let i = a.index();
        let skel = self.skeleton.arrays[i];
        if skel != NONE_ID {
            return u64::from(skel);
        }
        if self.array_epoch[i] != self.epoch {
            self.array_epoch[i] = self.epoch;
            self.array_id[i] = self.next_array;
            self.next_array += 1;
        }
        LOCAL_CANON_BASE + u64::from(self.array_id[i])
    }
}

fn hash_label(h: &mut Mix64, label: Option<&str>) {
    match label {
        Some(label) => {
            h.write_u8(1);
            h.write_bytes(label.as_bytes());
        }
        None => h.write_u8(0),
    }
}

/// Tag bit marking an operand word as a canonical variable id.
/// Canonical ids stay far below 2^63 (the nest-local overlay starts at
/// 2^32), so the bit is free for vars; a constant can only alias a var
/// word for values within 2^34 of `i64::MIN`, which is acceptable for a
/// cache key (collisions are already possible at the hash level).
const OPERAND_VAR_TAG: u64 = 1 << 63;

fn hash_operand<C: CanonIds>(h: &mut Mix64, canon: &mut C, op: &Operand) {
    match op {
        Operand::Var(v) => h.write_u64(OPERAND_VAR_TAG | canon.var(*v)),
        Operand::Const(c) => h.write_u64(*c as u64),
    }
}

fn hash_inst<C: CanonIds>(h: &mut Mix64, canon: &mut C, inst: &Inst) {
    // One packed tag word per instruction (opcode / arity folded in),
    // one word per operand.
    match inst {
        Inst::Copy { dst, src } => {
            h.write_u64(10);
            hash_operand(h, canon, src);
            h.write_u64(canon.var(*dst));
        }
        Inst::Neg { dst, src } => {
            h.write_u64(11);
            hash_operand(h, canon, src);
            h.write_u64(canon.var(*dst));
        }
        Inst::Binary { dst, op, lhs, rhs } => {
            h.write_u64(12 | (*op as u64) << 8);
            hash_operand(h, canon, lhs);
            hash_operand(h, canon, rhs);
            h.write_u64(canon.var(*dst));
        }
        Inst::Load { dst, array, index } => {
            h.write_u64(13 | (index.len() as u64) << 8);
            h.write_u64(canon.array(*array));
            for op in index.iter() {
                hash_operand(h, canon, op);
            }
            h.write_u64(canon.var(*dst));
        }
        Inst::Store {
            array,
            index,
            value,
        } => {
            h.write_u64(14 | (index.len() as u64) << 8);
            h.write_u64(canon.array(*array));
            for op in index.iter() {
                hash_operand(h, canon, op);
            }
            hash_operand(h, canon, value);
        }
    }
}

fn hash_term<C: CanonIds, T: Fn(&mut Mix64, Block)>(
    h: &mut Mix64,
    canon: &mut C,
    term: &Terminator,
    target: &T,
) {
    match term {
        Terminator::Jump(b) => {
            h.write_u64(20);
            target(h, *b);
        }
        Terminator::Branch {
            op,
            lhs,
            rhs,
            then_bb,
            else_bb,
        } => {
            h.write_u64(21 | (*op as u64) << 8);
            hash_operand(h, canon, lhs);
            hash_operand(h, canon, rhs);
            target(h, *then_bb);
            target(h, *else_bb);
        }
        Terminator::Return => h.write_u64(22),
    }
}

/// Reusable state for a sequence of [`analyze_incremental`] calls over
/// successive versions of a function: the per-region summary cache plus
/// the analysis configuration (part of the state because summaries are
/// only valid for the configuration that produced them).
#[derive(Debug)]
pub struct IncrementalState {
    cache: StructuralCache,
    config: AnalysisConfig,
}

impl IncrementalState {
    /// Fresh state with the default cache capacity (4096 regions).
    pub fn new(config: AnalysisConfig) -> IncrementalState {
        IncrementalState::with_capacity(config, 4096)
    }

    /// Fresh state with an explicit region-cache capacity.
    pub fn with_capacity(config: AnalysisConfig, capacity: usize) -> IncrementalState {
        IncrementalState {
            cache: StructuralCache::new(capacity),
            config,
        }
    }

    /// The underlying region cache (cumulative hit/miss counters).
    pub fn cache(&self) -> &StructuralCache {
        &self.cache
    }

    /// The configuration summaries are computed with.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }
}

/// One nest's outcome in an incremental run.
#[derive(Debug, Clone)]
pub struct NestOutcome {
    /// Nest display name (or the function name for the whole-function
    /// fallback region).
    pub name: String,
    /// The region hash used as the cache key.
    pub region_hash: u64,
    /// Whether the summary was spliced from the cache.
    pub reused: bool,
    /// The nest's summary (its loops only, inner-to-outer).
    pub summary: Arc<StructuralSummary>,
}

/// Scheduling-independent counters for one incremental run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrementalStats {
    /// Regions in the function (1 for the whole-function fallback).
    pub nests: usize,
    /// Regions spliced from the cache.
    pub reused: usize,
    /// Regions re-analyzed this run.
    pub analyzed: usize,
    /// Whether per-nest slicing applied (false = whole-function region).
    pub sliceable: bool,
}

/// The result of one [`analyze_incremental`] call.
#[derive(Debug, Clone)]
pub struct IncrementalReport {
    /// The function's name (never part of any cache key).
    pub name: String,
    /// Per-nest outcomes in header-block order.
    pub nests: Vec<NestOutcome>,
    /// Counters for this run.
    pub stats: IncrementalStats,
}

impl IncrementalReport {
    /// Renders every nest block. Byte-identical between a warm run and a
    /// cold re-analysis of the same function — reuse markers are kept
    /// out of this rendering on purpose (they live in
    /// [`render`](IncrementalReport::render)'s stats line).
    pub fn render_nests(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("func {}\n", self.name));
        for nest in &self.nests {
            out.push_str(&format!(
                "  nest {} [{:016x}]\n",
                nest.name, nest.region_hash
            ));
            let mut body = String::new();
            render_summary_body(&mut body, &nest.summary);
            for line in body.lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// [`render_nests`](IncrementalReport::render_nests) plus the stats
    /// line.
    pub fn render(&self) -> String {
        let mut out = self.render_nests();
        out.push_str(&format!(
            "incremental: {} nests, {} reused, {} analyzed{}\n",
            self.stats.nests,
            self.stats.reused,
            self.stats.analyzed,
            if self.stats.sliceable {
                ""
            } else {
                " (whole-function fallback)"
            }
        ));
        out
    }
}

/// Analyzes `func`, re-running SSA construction and classification only
/// for nests whose region hash is not in `state`'s cache; every other
/// nest splices its cached summary. See the module docs for the region
/// and hashing model.
pub fn analyze_incremental(func: &Function, state: &mut IncrementalState) -> IncrementalReport {
    let regions = RegionMap::compute(func);
    analyze_incremental_with_regions(func, &regions, state)
}

/// [`analyze_incremental`] with a precomputed [`RegionMap`] — for
/// callers (the watch-bench loop, benchmarks) that already partitioned
/// the function.
pub fn analyze_incremental_with_regions(
    func: &Function,
    regions: &RegionMap,
    state: &mut IncrementalState,
) -> IncrementalReport {
    // Incremental reports never print invariants, so every summary here
    // is the plain product (keyed, like the batch driver's, by the bare
    // structural hash).
    if !regions.is_sliceable() {
        // Whole-function fallback: still memoized, keyed by the batch
        // driver's structural hash, just not nest-granular.
        let hash = structural_hash(func);
        let (summary, reused) = match state.cache.lookup(hash) {
            Some(s) => (s, true),
            None => {
                let s = Arc::new(summarize(func, &state.config, false));
                if s.cacheable() {
                    state.cache.insert(hash, Arc::clone(&s));
                }
                (s, false)
            }
        };
        return IncrementalReport {
            name: func.name().to_string(),
            nests: vec![NestOutcome {
                name: func.name().to_string(),
                region_hash: hash,
                reused,
                summary,
            }],
            stats: IncrementalStats {
                nests: 1,
                reused: usize::from(reused),
                analyzed: usize::from(!reused),
                sliceable: false,
            },
        };
    }
    let mut outcomes = Vec::with_capacity(regions.nests.len());
    let mut stats = IncrementalStats {
        nests: regions.nests.len(),
        sliceable: true,
        ..IncrementalStats::default()
    };
    for (k, nest) in regions.nests.iter().enumerate() {
        let (summary, reused) = match state.cache.lookup(nest.region_hash) {
            Some(s) => (s, true),
            None => {
                let sliced = regions.slice(func, k);
                let s = Arc::new(summarize_filtered(
                    &sliced.func,
                    &state.config,
                    false,
                    Some(&sliced.keep),
                ));
                if s.cacheable() {
                    state.cache.insert(nest.region_hash, Arc::clone(&s));
                }
                (s, false)
            }
        };
        if reused {
            stats.reused += 1;
        } else {
            stats.analyzed += 1;
        }
        outcomes.push(NestOutcome {
            name: nest.name.clone(),
            region_hash: nest.region_hash,
            reused,
            summary,
        });
    }
    IncrementalReport {
        name: func.name().to_string(),
        nests: outcomes,
        stats,
    }
}

/// Bumps one constant inside nest `k` of `regions` and returns the
/// mutated function — the canonical "edit one nest" workload for the
/// watch-bench loop, the incremental benchmark, and the property suite.
///
/// `pick` selects the mutation deterministically: which constant site
/// (instruction operands and branch bounds all count) and by how much
/// (`1 + pick % 7`, so repeated picks at the same site keep producing
/// fresh region hashes). Returns `None` when the nest holds no constant.
pub fn perturb_nest_constant(
    func: &Function,
    regions: &RegionMap,
    k: usize,
    pick: u64,
) -> Option<Function> {
    let nest = regions.nests.get(k)?;
    // First pass: count constant sites in the nest.
    let mut sites = 0usize;
    let count_op = |sites: &mut usize, op: &Operand| {
        if matches!(op, Operand::Const(_)) {
            *sites += 1;
        }
    };
    for &b in &nest.blocks {
        let data = &func.blocks[b];
        for inst in &data.insts {
            for_each_operand(inst, |op| count_op(&mut sites, op));
        }
        if let Terminator::Branch { lhs, rhs, .. } = &data.term {
            count_op(&mut sites, lhs);
            count_op(&mut sites, rhs);
        }
    }
    if sites == 0 {
        return None;
    }
    let target = (pick % sites as u64) as usize;
    let delta = 1 + (pick % 7) as i64;
    let mut mutated = func.clone();
    let mut seen = 0usize;
    let mut bump = |op: &mut Operand| {
        if let Operand::Const(c) = op {
            if seen == target {
                *c += delta;
            }
            seen += 1;
        }
    };
    for &b in &nest.blocks {
        let data = &mut mutated.blocks[b];
        for inst in &mut data.insts {
            for_each_operand_mut(inst, &mut bump);
        }
        if let Terminator::Branch { lhs, rhs, .. } = &mut data.term {
            bump(lhs);
            bump(rhs);
        }
    }
    Some(mutated)
}

fn for_each_operand(inst: &Inst, mut f: impl FnMut(&Operand)) {
    match inst {
        Inst::Copy { src, .. } | Inst::Neg { src, .. } => f(src),
        Inst::Binary { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        Inst::Load { index, .. } => index.iter().for_each(f),
        Inst::Store { index, value, .. } => {
            index.iter().for_each(&mut f);
            f(value);
        }
    }
}

fn for_each_operand_mut(inst: &mut Inst, f: &mut impl FnMut(&mut Operand)) {
    match inst {
        Inst::Copy { src, .. } | Inst::Neg { src, .. } => f(src),
        Inst::Binary { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        Inst::Load { index, .. } => index.iter_mut().for_each(f),
        Inst::Store { index, value, .. } => {
            index.iter_mut().for_each(&mut *f);
            f(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biv_ir::parser::parse_program;

    fn func_of(src: &str) -> Function {
        parse_program(src)
            .expect("test source parses")
            .functions
            .remove(0)
    }

    const TWO_NESTS: &str = r#"
        func f(n) {
            a = 1
            L1: for i = 1 to n { a = a + i ARR[a] = i }
            b = 2
            L2: for j = 1 to n { b = b + 3 ARR[b] = j }
        }
    "#;

    #[test]
    fn independent_nests_partition_and_hash() {
        let f = func_of(TWO_NESTS);
        let regions = RegionMap::compute(&f);
        assert!(regions.is_sliceable());
        assert_eq!(regions.nests.len(), 2);
        assert_eq!(regions.nests[0].name, "L1");
        assert_eq!(regions.nests[1].name, "L2");
        assert!(regions.nests[0].deps.is_empty());
        assert!(regions.nests[1].deps.is_empty());
        assert_ne!(regions.nests[0].region_hash, regions.nests[1].region_hash);
    }

    #[test]
    fn dataflow_dependency_joins_regions() {
        let f = func_of(
            r#"
            func f(n) {
                a = 0
                L1: for i = 1 to n { a = a + 1 }
                L2: for j = 1 to n { b = a + j ARR[b] = j }
            }
            "#,
        );
        let regions = RegionMap::compute(&f);
        assert!(regions.is_sliceable());
        assert_eq!(regions.nests[1].deps, vec![0], "L2 reads a, written by L1");
        assert!(regions.nests[0].deps.is_empty());
    }

    #[test]
    fn single_nest_summary_matches_batch_summarize() {
        let f = func_of("func f(n) { a = 1 L1: for i = 1 to n { a = a + i ARR[a] = i } }");
        let config = AnalysisConfig::default();
        let mut state = IncrementalState::new(config);
        let report = analyze_incremental(&f, &mut state);
        assert!(report.stats.sliceable);
        assert_eq!(report.nests.len(), 1);
        let full = summarize(&f, &config, false);
        assert_eq!(
            *report.nests[0].summary, full,
            "one-nest slice is the whole function"
        );
    }

    #[test]
    fn mutation_in_one_nest_reuses_the_other() {
        let f = func_of(TWO_NESTS);
        let mut state = IncrementalState::new(AnalysisConfig::default());
        let first = analyze_incremental(&f, &mut state);
        assert_eq!(first.stats.analyzed, 2);
        let regions = RegionMap::compute(&f);
        let mutated = perturb_nest_constant(&f, &regions, 1, 3).expect("L2 has constants");
        let second = analyze_incremental(&mutated, &mut state);
        assert_eq!(second.stats.reused, 1, "L1 untouched, spliced from cache");
        assert_eq!(second.stats.analyzed, 1, "L2 re-analyzed");
        // The warm result is byte-identical to a cold re-analysis.
        let mut cold = IncrementalState::new(AnalysisConfig::default());
        let fresh = analyze_incremental(&mutated, &mut cold);
        assert_eq!(second.render_nests(), fresh.render_nests());
    }

    #[test]
    fn unchanged_function_is_fully_reused() {
        let f = func_of(TWO_NESTS);
        let mut state = IncrementalState::new(AnalysisConfig::default());
        analyze_incremental(&f, &mut state);
        let again = analyze_incremental(&f, &mut state);
        assert_eq!(again.stats.reused, 2);
        assert_eq!(again.stats.analyzed, 0);
    }

    #[test]
    fn loopless_function_falls_back_to_whole_function_region() {
        let f = func_of("func f(n) { x = n + 1 }");
        let mut state = IncrementalState::new(AnalysisConfig::default());
        let report = analyze_incremental(&f, &mut state);
        assert!(!report.stats.sliceable);
        assert_eq!(report.nests.len(), 1);
        assert!(!report.nests[0].reused);
        let again = analyze_incremental(&f, &mut state);
        assert!(again.nests[0].reused, "fallback region is still memoized");
    }

    #[test]
    fn skeleton_edit_invalidates_every_nest() {
        let f = func_of(TWO_NESTS);
        let g = func_of(&TWO_NESTS.replace("a = 1", "a = 9"));
        let rf = RegionMap::compute(&f);
        let rg = RegionMap::compute(&g);
        assert_ne!(rf.nests[0].region_hash, rg.nests[0].region_hash);
        assert_ne!(rf.nests[1].region_hash, rg.nests[1].region_hash);
    }

    #[test]
    fn nest_edit_leaves_sibling_hash_alone() {
        let f = func_of(TWO_NESTS);
        let g = func_of(&TWO_NESTS.replace("b = b + 3", "b = b + 4"));
        let rf = RegionMap::compute(&f);
        let rg = RegionMap::compute(&g);
        assert_eq!(rf.nests[0].region_hash, rg.nests[0].region_hash);
        assert_ne!(rf.nests[1].region_hash, rg.nests[1].region_hash);
    }

    #[test]
    fn skeleton_binding_separates_identical_nests() {
        // Two nests with identical bodies except for which skeleton
        // variable they read must not share a region hash.
        let f = func_of(
            r#"
            func f(n) {
                p = 1
                q = 2
                L1: for i = 1 to n { x = p + i ARR[x] = i }
                L1: for j = 1 to n { y = q + j ARR[y] = j }
            }
            "#,
        );
        let regions = RegionMap::compute(&f);
        assert!(regions.is_sliceable());
        assert_ne!(regions.nests[0].region_hash, regions.nests[1].region_hash);
    }
}
