//! The versioned, checksummed binary checkpoint format.
//!
//! The legacy JSON checkpoints scaled linearly in *text*: at a million
//! chips the pretty-printed tree ran to gigabytes and most of the bytes
//! were field names. The binary format keeps the same logical content
//! in a single length-prefixed frame:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "AGQFLEET"
//! 8       4     format version, u32 LE (2, 3 or 4; see below)
//! 12      8     payload length, u64 LE
//! 20      n     payload
//! 20+n    4     CRC32 (IEEE) of the payload, u32 LE
//! ```
//!
//! Formats 2, 3 and 4 all decode. The encoder writes the one the config
//! implies ([`FleetConfig::checkpoint_format`]): 2 for a plain fleet, 3
//! when the weight-memory axis is on (each chip record gains its memory
//! state), 4 when the autopilot is armed (the payload gains the budget
//! ledger, each chip record its pilot state).
//!
//! Every multi-byte integer is little-endian; every `f64` is stored as
//! its IEEE-754 bit pattern (`to_bits`), so encode→decode is exact and
//! a binary round trip is bit-identical.
//!
//! The payload holds the config (as canonical JSON — it is small and
//! schema-bearing), the epoch, the RNG state words, a deduplicated
//! plan table, and one record per chip referencing the table. Fleets
//! re-plan per *bucket*, not per chip, so millions of chips share a
//! handful of distinct plans; interning them is most of the size win
//! beyond dropping field names.
//!
//! Save and load run at memory speed. The CRC is a table-driven
//! slice-by-16 kernel ([`Crc32`]): 16 lookups fold each 16-byte block,
//! and only the sub-block tail goes bytewise. The encoder assembles the
//! frame in one buffer: it interns the plan table in a first pass over
//! the chips, writes header, preamble and table, then writes each chip
//! record once, back-patches the length and appends the CRC. No record
//! is copied after it is written.
//!
//! [`FleetState::load`] reads frames only; the legacy JSON form is
//! read by `agequant-fleet migrate` alone, through
//! [`FleetState::from_json`]. [`FleetState::from_binary`] reports
//! structural damage as typed [`CorruptKind`] values rather than a
//! parse error soup. The CRC is verified before anything is parsed.
//! Past it, a frame either fails as a typed error or decodes to a
//! state that re-encodes to exactly its bytes: a non-canonical config,
//! a format that disagrees with the config, or a plan table that is
//! not the encoder's first-use interning are refused, not normalized.

use std::collections::{BTreeMap, BTreeSet};

use agequant_aging::{
    DegradationModel, HciModel, MissionProfile, ModelSpec, NbtiPowerLaw, Phase, TechProfile,
    VthShift,
};
use agequant_core::CompressionPlan;
use agequant_quant::QuantMethod;
use agequant_sta::{Compression, Padding};

use agequant_autopilot::{BudgetState, PilotState, Regime};

use crate::chip::{Chip, ChipMemState, ChipMode, ChipPlan, MissionKind};
use crate::error::{CorruptKind, FleetError};
use crate::rng::FleetRng;
use crate::sim::{
    FleetConfig, FleetState, CHECKPOINT_FORMAT, CHECKPOINT_FORMAT_AUTOPILOT, CHECKPOINT_FORMAT_MEM,
};

/// The frame magic: the first 8 bytes of every binary checkpoint.
pub const MAGIC: [u8; 8] = *b"AGQFLEET";

/// Frame header size: magic + version + payload length.
const HEADER_LEN: usize = 8 + 4 + 8;

/// Chip record sentinel for "no plan" (a guardband-degraded chip).
const NO_PLAN: u32 = u32::MAX;

/// Lower bounds on the bytes one record takes, which cap what a
/// decoder reserves for a count: [`encode_plan`] with no accuracy
/// loss, [`encode_chip`] in format 2 with a point-less surrogate model
/// and no mission phases, and one surrogate curve point.
const MIN_PLAN_RECORD: usize = 8 + 8 + 3 + 8 + 8 + 8 + 1 + 1;
const MIN_CHIP_RECORD: usize = 4 + 1 + (1 + 6 * 8 + 4) + 1 + 8 + 1 + 4;
const CURVE_POINT_RECORD: usize = 16;

/// Bytes the encoder reserves per chip record up front: above a
/// format-4 record with memory and pilot state (about 180 B), so a
/// typical fleet's frame is written without reallocating. Reserved
/// pages the records do not reach are never touched.
const CHIP_RECORD_RESERVE: usize = 192;

// --- CRC32 (IEEE 802.3, the zlib/PNG polynomial) -----------------------

/// Slice-by-16 tables for the reflected polynomial `0xEDB8_8320`.
/// `CRC_TABLES[0]` is the classic bytewise table; `CRC_TABLES[k][b]` is
/// the CRC register after byte `b` is followed by `k` zero bytes, so
/// one 16-byte block folds in with 16 independent lookups.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

/// Streaming CRC32 (IEEE): feed the bytes in any split with
/// [`Crc32::update`], then [`Crc32::finish`]. The result depends only
/// on the concatenated bytes, never on where they were split.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    register: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh checksum over zero bytes.
    #[must_use]
    pub const fn new() -> Self {
        Crc32 {
            register: 0xFFFF_FFFF,
        }
    }

    /// Folds `bytes` into the checksum: 16 bytes per step through the
    /// slice-by-16 tables, then the sub-block tail one byte at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let lane =
            |b: &[u8; 16], at: usize| u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]);
        let byte = |w: u32, shift: u32| ((w >> shift) & 0xFF) as usize;
        let (blocks, tail) = bytes.as_chunks::<16>();
        let mut c = self.register;
        for block in blocks {
            // Lanes 1-3 do not depend on the running register, so they
            // fold while the lane-0 lookups wait on it; only those four
            // lookups and two XORs sit on the loop-carried chain.
            let (w1, w2, w3) = (lane(block, 4), lane(block, 8), lane(block, 12));
            let rest = (t[11][byte(w1, 0)] ^ t[10][byte(w1, 8)])
                ^ (t[9][byte(w1, 16)] ^ t[8][byte(w1, 24)])
                ^ (t[7][byte(w2, 0)] ^ t[6][byte(w2, 8)])
                ^ (t[5][byte(w2, 16)] ^ t[4][byte(w2, 24)])
                ^ (t[3][byte(w3, 0)] ^ t[2][byte(w3, 8)])
                ^ (t[1][byte(w3, 16)] ^ t[0][byte(w3, 24)]);
            let w0 = lane(block, 0) ^ c;
            c = rest
                ^ (t[15][byte(w0, 0)] ^ t[14][byte(w0, 8)])
                ^ (t[13][byte(w0, 16)] ^ t[12][byte(w0, 24)]);
        }
        for &b in tail {
            c = t[0][byte(c ^ u32::from(b), 0)] ^ (c >> 8);
        }
        self.register = c;
    }

    /// The checksum of every byte fed so far.
    #[must_use]
    pub const fn finish(self) -> u32 {
        self.register ^ 0xFFFF_FFFF
    }
}

/// CRC32 (IEEE) of `bytes` — the payload checksum of the frame.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

// --- encoding ----------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_profile(out: &mut Vec<u8>, p: &TechProfile) {
    put_f64(out, p.vdd);
    put_f64(out, p.vth0);
    put_f64(out, p.eol_shift_v);
    put_f64(out, p.lifetime_years);
    put_f64(out, p.exponent);
    put_f64(out, p.eol_delay_increase);
}

fn len_u32(what: &str, len: usize) -> Result<u32, FleetError> {
    u32::try_from(len).map_err(|_| FleetError::Capacity(format!("{what} count {len} exceeds u32")))
}

fn method_code(method: Option<QuantMethod>) -> u8 {
    match method {
        None => 0,
        Some(m) => {
            let idx = QuantMethod::ALL
                .iter()
                .position(|&q| q == m)
                .expect("every QuantMethod is in ALL");
            #[allow(clippy::cast_possible_truncation)]
            {
                (idx + 1) as u8
            }
        }
    }
}

fn encode_plan(out: &mut Vec<u8>, plan: &ChipPlan) {
    put_u64(out, plan.bucket);
    put_f64(out, plan.plan.shift.volts());
    out.push(plan.plan.compression.alpha());
    out.push(plan.plan.compression.beta());
    out.push(match plan.plan.padding {
        Padding::Msb => 0,
        Padding::Lsb => 1,
    });
    put_f64(out, plan.plan.compressed_delay_ps);
    put_f64(out, plan.plan.constraint_ps);
    put_u64(
        out,
        u64::try_from(plan.plan.feasible_points).expect("usize fits u64"),
    );
    out.push(method_code(plan.method));
    match plan.accuracy_loss_pct {
        None => out.push(0),
        Some(loss) => {
            out.push(1);
            put_f64(out, loss);
        }
    }
}

fn encode_model(out: &mut Vec<u8>, model: &ModelSpec) -> Result<(), FleetError> {
    match model {
        ModelSpec::Nbti(m) => {
            out.push(0);
            put_profile(out, &m.profile);
            put_f64(out, m.duty_cycle);
        }
        ModelSpec::Hci(m) => {
            out.push(1);
            put_profile(out, &m.profile);
            put_f64(out, m.activity);
        }
        ModelSpec::Surrogate(m) => {
            out.push(2);
            put_profile(out, m.profile());
            let points = m.points();
            put_u32(out, len_u32("surrogate curve point", points.len())?);
            for &(years, volts) in points {
                put_f64(out, years);
                put_f64(out, volts);
            }
        }
    }
    Ok(())
}

fn kind_code(kind: MissionKind) -> u8 {
    #[allow(clippy::cast_possible_truncation)]
    {
        MissionKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("every MissionKind is in ALL") as u8
    }
}

/// A borrowed view of one chip's checkpointable fields: what the
/// encoder needs, without materializing a fat [`Chip`] (the shard-
/// direct save path borrows straight from the struct-of-arrays
/// columns).
pub(crate) struct ChipView<'a> {
    pub id: u32,
    pub kind: MissionKind,
    pub model: &'a ModelSpec,
    pub profile: &'a MissionProfile,
    pub bucket: u64,
    pub mode: ChipMode,
    pub plan: Option<&'a ChipPlan>,
    pub mem: Option<ChipMemState>,
    pub pilot: Option<PilotState>,
}

impl<'a> ChipView<'a> {
    pub(crate) fn of(chip: &'a Chip) -> Self {
        ChipView {
            id: chip.id,
            kind: chip.kind,
            model: &chip.model,
            profile: &chip.profile,
            bucket: chip.bucket,
            mode: chip.mode,
            plan: chip.plan.as_ref(),
            mem: chip.mem,
            pilot: chip.pilot,
        }
    }
}

fn regime_code(regime: Regime) -> u8 {
    #[allow(clippy::cast_possible_truncation)]
    {
        Regime::ALL
            .iter()
            .position(|&r| r == regime)
            .expect("every Regime is in ALL") as u8
    }
}

fn decode_regime(code: u8) -> Result<Regime, FleetError> {
    Regime::ALL
        .get(usize::from(code))
        .copied()
        .ok_or_else(|| FleetError::Malformed(format!("unknown regime code {code}")))
}

fn encode_chip(
    out: &mut Vec<u8>,
    chip: &ChipView<'_>,
    plan_index: Option<u32>,
    with_mem: bool,
    with_autopilot: bool,
) -> Result<(), FleetError> {
    put_u32(out, chip.id);
    out.push(kind_code(chip.kind));
    encode_model(out, chip.model)?;
    let phases = chip.profile.phases();
    let nphases = u8::try_from(phases.len())
        .map_err(|_| FleetError::Capacity(format!("{} mission phases exceed u8", phases.len())))?;
    out.push(nphases);
    for phase in phases {
        put_f64(out, phase.fraction);
        put_f64(out, phase.duty_cycle);
        put_f64(out, phase.temperature_c);
    }
    put_u64(out, chip.bucket);
    out.push(match chip.mode {
        ChipMode::Compressed => 0,
        ChipMode::Guardband => 1,
    });
    put_u32(out, plan_index.unwrap_or(NO_PLAN));
    if with_mem {
        // Format-3 records carry the weight-memory state; format-2
        // records stop here, byte-identical to the pre-memory format.
        match chip.mem {
            None => out.push(0),
            Some(mem) => {
                out.push(1);
                put_u32(out, mem.reencodes);
                out.push(u8::from(mem.degraded));
                put_f64(out, mem.stress_active_years);
                put_f64(out, mem.stress_spare_years);
            }
        }
    }
    if with_autopilot {
        // Format-4 records append the per-chip pilot state; a chip
        // without one (never enrolled) writes the 0 flag only.
        match chip.pilot {
            None => out.push(0),
            Some(pilot) => {
                out.push(1);
                out.push(regime_code(pilot.regime));
                put_f64(out, pilot.rate_mv_per_epoch);
                put_f64(out, pilot.residual_mv);
                put_f64(out, pilot.last_mv);
                put_u64(out, pilot.last_epoch);
                put_u64(out, pilot.next_epoch);
            }
        }
    }
    Ok(())
}

/// The interned plan table: each distinct encoded plan once, in
/// first-encounter order, and every chip's index into it.
struct PlanTable {
    ordered: Vec<Vec<u8>>,
    chip_index: Vec<Option<u32>>,
}

/// Interns the chips' plans by their *encoded bytes*. Plans are not
/// compared with `==`: `f64` equality holds for `-0.0` and `0.0`,
/// which encode differently and must stay distinct table entries.
/// Neighbouring chips usually share a bucket and so a plan, so the
/// previous chip's index is reused before the table is searched, and
/// a plan's bytes are copied only when they enter the table.
fn intern_plans<'a>(
    chips: impl Iterator<Item = ChipView<'a>>,
    chip_count: usize,
) -> Result<PlanTable, FleetError> {
    let mut lookup: BTreeMap<Vec<u8>, u32> = BTreeMap::new();
    let mut ordered: Vec<Vec<u8>> = Vec::new();
    let mut chip_index = Vec::with_capacity(chip_count);
    let mut encoded = Vec::new();
    let mut previous = Vec::new();
    let mut previous_index = None;
    for chip in chips {
        let Some(plan) = chip.plan else {
            chip_index.push(None);
            continue;
        };
        encoded.clear();
        encode_plan(&mut encoded, plan);
        let index = match previous_index {
            Some(idx) if previous == encoded => idx,
            _ => {
                let idx = match lookup.get(&encoded) {
                    Some(&idx) => idx,
                    None => {
                        let idx = len_u32("distinct plan", ordered.len())?;
                        lookup.insert(encoded.clone(), idx);
                        ordered.push(encoded.clone());
                        idx
                    }
                };
                // This chip's bytes become `previous`; the old buffer
                // is reused for the next chip's plan.
                std::mem::swap(&mut previous, &mut encoded);
                previous_index = Some(idx);
                idx
            }
        };
        chip_index.push(Some(index));
    }
    Ok(PlanTable {
        ordered,
        chip_index,
    })
}

/// Encodes a complete checkpoint frame from borrowed chip views in id
/// order — the single encoder behind both [`FleetState::to_binary`]
/// and the shard-direct [`crate::FleetSim::checkpoint_binary`], so the
/// two paths cannot drift byte-wise.
///
/// The frame is assembled in one buffer. A first pass over the chips
/// interns the plan table (first-encounter order is the iteration
/// order, exactly as the state path has always written it). The header
/// goes out with a zero length field, then the config/epoch/RNG
/// preamble and the plan table, then every chip record, written once
/// and never copied; the length is back-patched and the CRC taken over
/// the finished payload in place.
pub(crate) fn encode_frame<'a>(
    config: &FleetConfig,
    epoch: u64,
    rng: &FleetRng,
    budget: Option<&BudgetState>,
    chips: impl Iterator<Item = ChipView<'a>> + Clone,
    chip_count: usize,
) -> Result<Vec<u8>, FleetError> {
    let format = config.checkpoint_format();
    let with_mem = format >= CHECKPOINT_FORMAT_MEM;
    let with_autopilot = format >= CHECKPOINT_FORMAT_AUTOPILOT;
    let plans = intern_plans(chips.clone(), chip_count)?;
    debug_assert_eq!(
        plans.chip_index.len(),
        chip_count,
        "chip iterator disagrees with count"
    );
    let config_json = serde_json::to_string(config).expect("FleetConfig serializes");
    let plan_bytes: usize = plans.ordered.iter().map(Vec::len).sum();

    let mut frame = Vec::with_capacity(
        HEADER_LEN + config_json.len() + plan_bytes + chip_count * CHIP_RECORD_RESERVE,
    );
    frame.extend_from_slice(&MAGIC);
    put_u32(&mut frame, format);
    put_u64(&mut frame, 0);
    put_u32(&mut frame, len_u32("config byte", config_json.len())?);
    frame.extend_from_slice(config_json.as_bytes());
    put_u64(&mut frame, epoch);
    for word in rng.state_words() {
        put_u64(&mut frame, word);
    }
    if with_autopilot {
        // Format-4 frames carry the fleet telemetry-budget ledger
        // between the RNG words and the chip count.
        match budget {
            None => frame.push(0),
            Some(b) => {
                frame.push(1);
                put_u64(&mut frame, b.tokens);
                put_u64(&mut frame, b.granted);
                put_u64(&mut frame, b.deferred);
                put_u64(&mut frame, b.overdraft);
            }
        }
    }
    put_u64(
        &mut frame,
        u64::try_from(plans.chip_index.len()).expect("usize fits u64"),
    );
    put_u32(&mut frame, len_u32("distinct plan", plans.ordered.len())?);
    for encoded in &plans.ordered {
        frame.extend_from_slice(encoded);
    }
    for (chip, &plan_index) in chips.zip(&plans.chip_index) {
        encode_chip(&mut frame, &chip, plan_index, with_mem, with_autopilot)?;
    }

    let payload_len = u64::try_from(frame.len() - HEADER_LEN).expect("usize fits u64");
    frame[12..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
    let checksum = crc32(&frame[HEADER_LEN..]);
    put_u32(&mut frame, checksum);
    Ok(frame)
}

// --- decoding ----------------------------------------------------------

/// A bounds-checked little-endian reader over the payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FleetError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(FleetError::Malformed(format!(
                "payload ends at byte {} but a field needs {n} more",
                self.buf.len()
            )));
        };
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, FleetError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FleetError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, FleetError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, FleetError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn profile(&mut self) -> Result<TechProfile, FleetError> {
        Ok(TechProfile {
            vdd: self.f64()?,
            vth0: self.f64()?,
            eol_shift_v: self.f64()?,
            lifetime_years: self.f64()?,
            exponent: self.f64()?,
            eol_delay_increase: self.f64()?,
        })
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// How many of `count` records of at least `min_record` bytes to
    /// reserve room for: no more than the unread payload can hold, so
    /// a lying count cannot reserve memory for records that are not
    /// there.
    fn capacity_for(&self, count: usize, min_record: usize) -> usize {
        count.min((self.buf.len() - self.pos) / min_record)
    }
}

fn checked_count(what: &str, n: u64) -> Result<usize, FleetError> {
    usize::try_from(n)
        .map_err(|_| FleetError::Capacity(format!("{what} count {n} exceeds this platform")))
}

fn decode_method(code: u8) -> Result<Option<QuantMethod>, FleetError> {
    if code == 0 {
        return Ok(None);
    }
    QuantMethod::ALL
        .get(usize::from(code) - 1)
        .copied()
        .map(Some)
        .ok_or_else(|| FleetError::Malformed(format!("unknown quant method code {code}")))
}

fn decode_plan(r: &mut Reader<'_>) -> Result<ChipPlan, FleetError> {
    let bucket = r.u64()?;
    let volts = r.f64()?;
    if !(volts.is_finite() && volts >= 0.0) {
        return Err(FleetError::Malformed(format!(
            "plan ΔVth {volts} V is not a finite, non-negative shift"
        )));
    }
    let shift = VthShift::from_volts(volts);
    let alpha = r.u8()?;
    let beta = r.u8()?;
    let padding = match r.u8()? {
        0 => Padding::Msb,
        1 => Padding::Lsb,
        code => {
            return Err(FleetError::Malformed(format!(
                "unknown padding code {code}"
            )))
        }
    };
    let compressed_delay_ps = r.f64()?;
    let constraint_ps = r.f64()?;
    let feasible_points = checked_count("feasible point", r.u64()?)?;
    let method = decode_method(r.u8()?)?;
    let accuracy_loss_pct = match r.u8()? {
        0 => None,
        1 => Some(r.f64()?),
        code => {
            return Err(FleetError::Malformed(format!(
                "unknown accuracy-loss flag {code}"
            )))
        }
    };
    Ok(ChipPlan {
        bucket,
        plan: CompressionPlan {
            shift,
            compression: Compression::new(alpha, beta),
            padding,
            compressed_delay_ps,
            constraint_ps,
            feasible_points,
        },
        method,
        accuracy_loss_pct,
    })
}

fn decode_model(r: &mut Reader<'_>) -> Result<ModelSpec, FleetError> {
    match r.u8()? {
        0 => {
            let profile = r.profile()?;
            let duty_cycle = r.f64()?;
            Ok(ModelSpec::Nbti(NbtiPowerLaw {
                profile,
                duty_cycle,
            }))
        }
        1 => {
            let profile = r.profile()?;
            let activity = r.f64()?;
            Ok(ModelSpec::Hci(HciModel { profile, activity }))
        }
        2 => {
            let profile = r.profile()?;
            let npoints = checked_count("surrogate curve point", u64::from(r.u32()?))?;
            let mut points = Vec::with_capacity(r.capacity_for(npoints, CURVE_POINT_RECORD));
            for _ in 0..npoints {
                points.push((r.f64()?, r.f64()?));
            }
            ModelSpec::surrogate(profile, points)
                .map_err(|e| FleetError::Malformed(format!("surrogate model: {e}")))
        }
        code => Err(FleetError::Malformed(format!("unknown model code {code}"))),
    }
}

/// Decodes one chip record. `plans_seen` counts the table entries
/// referenced so far: the encoder interns plans in chip order, so a
/// chip may reference a seen plan or the next unseen one, never skip
/// ahead.
fn decode_chip(
    r: &mut Reader<'_>,
    plans: &[ChipPlan],
    plans_seen: &mut usize,
    with_mem: bool,
    with_autopilot: bool,
) -> Result<Chip, FleetError> {
    let id = r.u32()?;
    let kind = *MissionKind::ALL
        .get(usize::from(r.u8()?))
        .ok_or_else(|| FleetError::Malformed("unknown mission kind code".into()))?;
    let model = decode_model(r)?;
    let nphases = usize::from(r.u8()?);
    let mut phases = Vec::with_capacity(nphases);
    for _ in 0..nphases {
        phases.push(Phase {
            fraction: r.f64()?,
            duty_cycle: r.f64()?,
            temperature_c: r.f64()?,
        });
    }
    let profile = MissionProfile::new(phases)
        .map_err(|e| FleetError::Malformed(format!("chip {id} mission profile: {e}")))?;
    let bucket = r.u64()?;
    let mode = match r.u8()? {
        0 => ChipMode::Compressed,
        1 => ChipMode::Guardband,
        code => {
            return Err(FleetError::Malformed(format!(
                "unknown chip mode code {code}"
            )))
        }
    };
    let plan = match r.u32()? {
        NO_PLAN => None,
        idx => {
            let at = checked_count("plan index", u64::from(idx))?;
            let plan = *plans.get(at).ok_or_else(|| {
                FleetError::Malformed(format!("chip {id} references missing plan {idx}"))
            })?;
            if at > *plans_seen {
                return Err(FleetError::Malformed(format!(
                    "chip {id} references plan {idx} before plan {plans_seen}"
                )));
            }
            if at == *plans_seen {
                *plans_seen += 1;
            }
            Some(plan)
        }
    };
    let mem = if with_mem {
        match r.u8()? {
            0 => None,
            1 => Some(ChipMemState {
                reencodes: r.u32()?,
                degraded: match r.u8()? {
                    0 => false,
                    1 => true,
                    code => {
                        return Err(FleetError::Malformed(format!(
                            "unknown memory-degraded flag {code}"
                        )))
                    }
                },
                stress_active_years: r.f64()?,
                stress_spare_years: r.f64()?,
            }),
            code => {
                return Err(FleetError::Malformed(format!(
                    "unknown memory-state flag {code}"
                )))
            }
        }
    } else {
        None
    };
    let pilot = if with_autopilot {
        match r.u8()? {
            0 => None,
            1 => Some(PilotState {
                regime: decode_regime(r.u8()?)?,
                rate_mv_per_epoch: r.f64()?,
                residual_mv: r.f64()?,
                last_mv: r.f64()?,
                last_epoch: r.u64()?,
                next_epoch: r.u64()?,
            }),
            code => {
                return Err(FleetError::Malformed(format!(
                    "unknown pilot-state flag {code}"
                )))
            }
        }
    } else {
        None
    };
    Ok(Chip {
        id,
        kind,
        model,
        profile,
        bucket,
        mode,
        plan,
        mem,
        pilot,
    })
}

impl FleetState {
    /// Serializes the state as a single binary checkpoint frame.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Capacity`] if a table in the state
    /// exceeds the format's index width (practically unreachable).
    ///
    /// # Panics
    ///
    /// Panics if config serialization fails (it is plain data, so it
    /// cannot).
    pub fn to_binary(&self) -> Result<Vec<u8>, FleetError> {
        encode_frame(
            &self.config,
            self.epoch,
            &self.rng,
            self.autopilot.as_ref(),
            self.chips.iter().map(ChipView::of),
            self.chips.len(),
        )
    }

    /// Parses a binary checkpoint frame produced by
    /// [`FleetState::to_binary`].
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Corrupt`] with a [`CorruptKind`] naming
    /// the structural damage (bad magic, unsupported version,
    /// truncation, checksum mismatch, trailing bytes),
    /// [`FleetError::Malformed`] when the frame is sound but the
    /// payload does not decode, or [`FleetError::Capacity`] when a
    /// count exceeds this platform.
    pub fn from_binary(bytes: &[u8]) -> Result<Self, FleetError> {
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(FleetError::Corrupt(CorruptKind::BadMagic));
        }
        if bytes.len() < HEADER_LEN {
            return Err(FleetError::Corrupt(CorruptKind::Truncated {
                needed: HEADER_LEN as u64,
                have: bytes.len() as u64,
            }));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if !(CHECKPOINT_FORMAT..=CHECKPOINT_FORMAT_AUTOPILOT).contains(&version) {
            return Err(FleetError::Corrupt(CorruptKind::UnsupportedVersion {
                found: version,
            }));
        }
        let with_mem = version >= CHECKPOINT_FORMAT_MEM;
        let with_autopilot = version >= CHECKPOINT_FORMAT_AUTOPILOT;
        let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let have = bytes.len() as u64;
        let needed = (HEADER_LEN as u64)
            .checked_add(payload_len)
            .and_then(|n| n.checked_add(4))
            .ok_or(FleetError::Corrupt(CorruptKind::Truncated {
                needed: u64::MAX,
                have,
            }))?;
        if have < needed {
            return Err(FleetError::Corrupt(CorruptKind::Truncated { needed, have }));
        }
        if have > needed {
            return Err(FleetError::Corrupt(CorruptKind::TrailingBytes {
                extra: have - needed,
            }));
        }
        let payload_end = HEADER_LEN + checked_count("payload byte", payload_len)?;
        let payload = &bytes[HEADER_LEN..payload_end];
        let stored = u32::from_le_bytes(bytes[payload_end..].try_into().expect("4 bytes"));
        let computed = crc32(payload);
        if stored != computed {
            return Err(FleetError::Corrupt(CorruptKind::ChecksumMismatch {
                stored,
                computed,
            }));
        }

        let mut r = Reader::new(payload);
        let config_len = checked_count("config byte", u64::from(r.u32()?))?;
        let config_json = std::str::from_utf8(r.take(config_len)?)
            .map_err(|e| FleetError::Malformed(format!("config is not UTF-8: {e}")))?;
        let config: FleetConfig = serde_json::from_str(config_json)
            .map_err(|e| FleetError::Malformed(format!("config: {e}")))?;
        // Every frame is the encoder's canonical output, so whatever
        // decodes must re-encode to the same bytes: a config spelled
        // differently, or one that implies another format, is refused
        // instead of being silently normalized.
        if serde_json::to_string(&config).expect("FleetConfig serializes") != config_json {
            return Err(FleetError::Malformed(
                "config is not in canonical form".into(),
            ));
        }
        if config.checkpoint_format() != version {
            return Err(FleetError::Malformed(format!(
                "format-{version} frame holds a format-{} config",
                config.checkpoint_format()
            )));
        }
        let epoch = r.u64()?;
        let rng = FleetRng::from_state_words([r.u64()?, r.u64()?, r.u64()?, r.u64()?]);
        let autopilot = if with_autopilot {
            match r.u8()? {
                0 => None,
                1 => Some(BudgetState {
                    tokens: r.u64()?,
                    granted: r.u64()?,
                    deferred: r.u64()?,
                    overdraft: r.u64()?,
                }),
                code => {
                    return Err(FleetError::Malformed(format!(
                        "unknown budget-ledger flag {code}"
                    )))
                }
            }
        } else {
            None
        };
        let chip_count = checked_count("chip", r.u64()?)?;
        let plan_count = checked_count("distinct plan", u64::from(r.u32()?))?;
        let mut plans = Vec::with_capacity(r.capacity_for(plan_count, MIN_PLAN_RECORD));
        let mut plan_records = BTreeSet::new();
        for _ in 0..plan_count {
            let start = r.pos;
            plans.push(decode_plan(&mut r)?);
            if !plan_records.insert(&payload[start..r.pos]) {
                return Err(FleetError::Malformed(format!(
                    "plan {} repeats an earlier plan",
                    plans.len() - 1
                )));
            }
        }
        let mut chips = Vec::with_capacity(r.capacity_for(chip_count, MIN_CHIP_RECORD));
        let mut plans_seen = 0;
        for _ in 0..chip_count {
            chips.push(decode_chip(
                &mut r,
                &plans,
                &mut plans_seen,
                with_mem,
                with_autopilot,
            )?);
        }
        if plans_seen != plans.len() {
            return Err(FleetError::Malformed(format!(
                "{} of {} plans are referenced by no chip",
                plans.len() - plans_seen,
                plans.len()
            )));
        }
        if !r.done() {
            return Err(FleetError::Malformed(format!(
                "{} unconsumed payload bytes after the last chip",
                payload.len() - r.pos
            )));
        }
        Ok(FleetState {
            format: Some(version),
            config,
            epoch,
            rng,
            chips,
            autopilot,
        })
    }

    /// Loads a checkpoint: a binary frame, decoded by
    /// [`FleetState::from_binary`]. This is what every tool
    /// (`agequant-fleet`, `agequant-lint`, the serve host) loads
    /// through. A legacy JSON checkpoint is refused here; `agequant-fleet
    /// migrate` converts it into a frame.
    ///
    /// # Errors
    ///
    /// Bytes that do not start with [`MAGIC`] report as
    /// [`FleetError::Malformed`], naming `agequant-fleet migrate`; a
    /// damaged frame reports as [`FleetError::Corrupt`].
    pub fn load(bytes: &[u8]) -> Result<Self, FleetError> {
        if !bytes.starts_with(&MAGIC) {
            return Err(FleetError::Malformed(
                "checkpoint is not a binary AGQFLEET frame; convert a legacy JSON \
                 checkpoint with `agequant-fleet migrate`"
                    .into(),
            ));
        }
        Self::from_binary(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::FleetSim;

    fn encoded_plan(plan: &ChipPlan) -> Vec<u8> {
        let mut out = Vec::new();
        encode_plan(&mut out, plan);
        out
    }

    fn small_state() -> FleetState {
        let mut config = FleetConfig::new(6, 31);
        config.epoch_years = 2.0;
        let mut sim = FleetSim::new(config).expect("valid config");
        sim.run(3).expect("simulates");
        sim.to_state()
    }

    #[test]
    fn binary_round_trip_is_bit_identical() {
        let state = small_state();
        let frame = state.to_binary().expect("encodes");
        let back = FleetState::from_binary(&frame).expect("decodes");
        assert_eq!(back, state);
        // And re-encoding the decoded state reproduces the same bytes.
        assert_eq!(back.to_binary().expect("re-encodes"), frame);
    }

    #[test]
    fn load_reads_frames_and_refuses_everything_else() {
        let state = small_state();
        let frame = state.to_binary().expect("encodes");
        assert_eq!(FleetState::load(&frame).expect("binary loads"), state);
        let json = include_bytes!("../tests/fixtures/checkpoint-v2.json");
        let garbage = [0xFFu8, 0xFE, 0x00, 0x01];
        for bytes in [&json[..], &garbage[..], &[]] {
            assert!(matches!(
                FleetState::load(bytes),
                Err(FleetError::Malformed(msg)) if msg.contains("agequant-fleet migrate")
            ));
        }
    }

    fn autopilot_state() -> FleetState {
        let mut config = FleetConfig::new(6, 31);
        config.epoch_years = 2.0;
        config.autopilot = Some(agequant_autopilot::AutopilotConfig::demo());
        let mut sim = FleetSim::new(config).expect("valid config");
        sim.run(5).expect("simulates");
        sim.to_state()
    }

    #[test]
    fn autopilot_frames_are_format_4_and_round_trip_bit_identically() {
        let state = autopilot_state();
        assert!(state.autopilot.is_some(), "autopilot run carries a ledger");
        assert!(state.chips.iter().all(|c| c.pilot.is_some()));
        let frame = state.to_binary().expect("encodes");
        let version = u32::from_le_bytes(frame[8..12].try_into().unwrap());
        assert_eq!(version, CHECKPOINT_FORMAT_AUTOPILOT);
        let back = FleetState::from_binary(&frame).expect("decodes");
        assert_eq!(back, state);
        assert_eq!(back.to_binary().expect("re-encodes"), frame);
    }

    #[test]
    fn arming_a_pre_autopilot_state_upgrades_the_frame_format() {
        // The migration path: a format-2 checkpoint is resumed, armed,
        // and saved again as format 4 with fresh pilot state per chip.
        let state = small_state();
        let old_frame = state.to_binary().expect("encodes");
        let old_version = u32::from_le_bytes(old_frame[8..12].try_into().unwrap());
        assert_eq!(old_version, CHECKPOINT_FORMAT);
        let mut sim = crate::FleetSim::resume(state).expect("resumes");
        sim.arm_autopilot(agequant_autopilot::AutopilotConfig::demo())
            .expect("valid autopilot config");
        let state = sim.to_state();
        let frame = state.to_binary().expect("encodes");
        let version = u32::from_le_bytes(frame[8..12].try_into().unwrap());
        assert_eq!(version, CHECKPOINT_FORMAT_AUTOPILOT);
        let back = FleetState::from_binary(&frame).expect("decodes");
        assert_eq!(back, state);
        assert!(back.chips.iter().all(|c| c.pilot.is_some()));
    }

    #[test]
    fn record_minimums_bound_every_record_the_encoder_writes() {
        let state = small_state();
        for chip in &state.chips {
            if let Some(plan) = &chip.plan {
                let mut bare = *plan;
                bare.accuracy_loss_pct = None;
                assert_eq!(encoded_plan(&bare).len(), MIN_PLAN_RECORD);
                assert!(encoded_plan(plan).len() >= MIN_PLAN_RECORD);
            }
            let mut record = Vec::new();
            encode_chip(&mut record, &ChipView::of(chip), None, false, false).expect("encodes");
            assert!(record.len() >= MIN_CHIP_RECORD, "{} bytes", record.len());
        }
    }

    #[test]
    fn plans_are_interned_once_per_distinct_plan() {
        let state = small_state();
        let distinct: std::collections::BTreeSet<Vec<u8>> = state
            .chips
            .iter()
            .filter_map(|c| c.plan.as_ref())
            .map(encoded_plan)
            .collect();
        let frame = state.to_binary().expect("encodes");
        // The plan table sits right after the fixed-size preamble and
        // the config JSON; check its count field directly.
        let config_len =
            u32::from_le_bytes(frame[HEADER_LEN..HEADER_LEN + 4].try_into().unwrap()) as usize;
        let table_at = HEADER_LEN + 4 + config_len + 8 + 32 + 8;
        let count = u32::from_le_bytes(frame[table_at..table_at + 4].try_into().unwrap());
        assert_eq!(count as usize, distinct.len());
    }

    #[test]
    fn plans_that_differ_only_in_the_sign_of_zero_stay_distinct() {
        // `f64` equality calls -0.0 and 0.0 equal; the interning keys
        // on encoded bytes, so both plans keep their own table entry.
        let mut state = small_state();
        let mut plan = state.chips[0].plan.expect("chip 0 holds a plan");
        plan.accuracy_loss_pct = Some(0.0);
        state.chips[0].plan = Some(plan);
        plan.accuracy_loss_pct = Some(-0.0);
        state.chips[1].plan = Some(plan);
        let frame = state.to_binary().expect("encodes");
        let back = FleetState::from_binary(&frame).expect("decodes");
        let loss = |i: usize| back.chips[i].plan.and_then(|p| p.accuracy_loss_pct);
        assert!(loss(0).is_some_and(|l| l.is_sign_positive()));
        assert!(loss(1).is_some_and(|l| l.is_sign_negative()));
        assert_eq!(back.to_binary().expect("re-encodes"), frame);
    }

    /// Offsets of each chip record's plan-index field in `frame`.
    fn plan_index_offsets(state: &FleetState, frame: &[u8]) -> Vec<usize> {
        let records: Vec<usize> = state
            .chips
            .iter()
            .map(|chip| {
                let mut record = Vec::new();
                encode_chip(&mut record, &ChipView::of(chip), Some(0), false, false)
                    .expect("encodes");
                record.len()
            })
            .collect();
        let mut at = frame.len() - 4 - records.iter().sum::<usize>();
        records
            .iter()
            .map(|len| {
                at += len;
                at - 4
            })
            .collect()
    }

    fn restamped(mut frame: Vec<u8>) -> Vec<u8> {
        let crc_at = frame.len() - 4;
        let crc = crc32(&frame[HEADER_LEN..crc_at]);
        frame[crc_at..].copy_from_slice(&crc.to_le_bytes());
        frame
    }

    /// Whether decoding `frame` fails as `Malformed` for the reason
    /// named by `why`.
    fn refused_for(frame: &[u8], why: &str) -> bool {
        matches!(FleetState::from_binary(frame), Err(FleetError::Malformed(msg)) if msg.contains(why))
    }

    #[test]
    fn frames_the_encoder_cannot_write_are_refused() {
        let state = small_state();
        let frame = state.to_binary().expect("encodes");
        let index_at = plan_index_offsets(&state, &frame);
        let index = |frame: &[u8], chip: usize| {
            u32::from_le_bytes(
                frame[index_at[chip]..index_at[chip] + 4]
                    .try_into()
                    .unwrap(),
            )
        };
        let plans = 1
            + (0..state.chips.len())
                .map(|chip| index(&frame, chip))
                .filter(|&i| i != NO_PLAN)
                .max()
                .expect("some chip holds a plan");
        assert!(plans >= 2, "the fixture fleet interns several plans");
        assert_eq!(index(&frame, 0), 0, "chip 0 interns plan 0");

        // Plans 0 and 1 swapped in every chip record: every plan is
        // still referenced, but plan 1 is referenced first.
        let mut swapped = frame.clone();
        for chip in 0..state.chips.len() {
            let swap = match index(&frame, chip) {
                0 => 1u32,
                1 => 0,
                _ => continue,
            };
            swapped[index_at[chip]..index_at[chip] + 4].copy_from_slice(&swap.to_le_bytes());
        }
        assert!(refused_for(&restamped(swapped), "before plan 0"));

        // A plan no chip references.
        let mut unused = frame.clone();
        for chip in 0..state.chips.len() {
            if index(&frame, chip) == plans - 1 {
                unused[index_at[chip]..index_at[chip] + 4].copy_from_slice(&0u32.to_le_bytes());
            }
        }
        assert!(refused_for(&restamped(unused), "referenced by no chip"));

        // A plan table entry that repeats an earlier one.
        let config_len =
            u32::from_le_bytes(frame[HEADER_LEN..HEADER_LEN + 4].try_into().unwrap()) as usize;
        let table_at = HEADER_LEN + 4 + config_len + 8 + 32 + 8 + 4;
        let mut r = Reader::new(&frame[table_at..]);
        decode_plan(&mut r).expect("plan 0 decodes");
        let plan_len = r.pos;
        decode_plan(&mut r).expect("plan 1 decodes");
        assert_eq!(r.pos, 2 * plan_len, "plans 0 and 1 are the same size");
        let mut repeated = frame.clone();
        repeated.copy_within(table_at..table_at + plan_len, table_at + plan_len);
        assert!(refused_for(&restamped(repeated), "repeats an earlier plan"));

        // A config spelled other than the encoder spells it.
        let config = std::str::from_utf8(&frame[HEADER_LEN + 4..HEADER_LEN + 4 + config_len])
            .expect("UTF-8 config");
        let spaced = config.replacen(':', ": ", 1);
        let mut payload = Vec::new();
        put_u32(&mut payload, len_u32("config byte", spaced.len()).unwrap());
        payload.extend_from_slice(spaced.as_bytes());
        payload.extend_from_slice(&frame[HEADER_LEN + 4 + config_len..frame.len() - 4]);
        let mut respelled = frame[..HEADER_LEN].to_vec();
        respelled[12..HEADER_LEN].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        respelled.extend_from_slice(&payload);
        respelled.extend_from_slice(&[0; 4]);
        assert!(refused_for(&restamped(respelled), "canonical"));

        // A version the config does not imply (the header is outside
        // the CRC, so no re-stamp).
        let mut relabelled = frame.clone();
        relabelled[8..12].copy_from_slice(&CHECKPOINT_FORMAT_MEM.to_le_bytes());
        assert!(refused_for(&relabelled, "format-2 config"));
    }
}
