//! The versioned, checksummed binary checkpoint format.
//!
//! JSON checkpoints scale linearly in *text*: at a million chips the
//! pretty-printed tree runs to gigabytes and most of the bytes are
//! field names. The binary format keeps the same logical content in a
//! single length-prefixed frame:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "AGQFLEET"
//! 8       4     format version, u32 LE (= CHECKPOINT_FORMAT)
//! 12      8     payload length, u64 LE
//! 20      n     payload
//! 20+n    4     CRC32 (IEEE) of the payload, u32 LE
//! ```
//!
//! Every multi-byte integer is little-endian; every `f64` is stored as
//! its IEEE-754 bit pattern (`to_bits`), so encode→decode is exact and
//! a binary round trip is bit-identical — the same contract the JSON
//! checkpoints already meet.
//!
//! The payload holds the config (as canonical JSON — it is small and
//! schema-bearing), the epoch, the RNG state words, a deduplicated
//! plan table, and one record per chip referencing the table. Fleets
//! re-plan per *bucket*, not per chip, so millions of chips share a
//! handful of distinct plans; interning them is most of the size win
//! beyond dropping field names.
//!
//! [`FleetState::load`] sniffs the magic and falls back to the JSON
//! parser (including its format-1 migration), so every historical
//! checkpoint still loads; [`FleetState::from_binary`] reports
//! structural damage as typed [`CorruptKind`] values rather than a
//! parse error soup.

use std::collections::BTreeMap;

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

// --- CRC32 (IEEE 802.3, the zlib/PNG polynomial) -----------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `bytes` — the payload checksum of the frame.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
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

fn encode_plan(plan: &ChipPlan) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_u64(&mut out, plan.bucket);
    put_f64(&mut out, plan.plan.shift.volts());
    out.push(plan.plan.compression.alpha());
    out.push(plan.plan.compression.beta());
    out.push(match plan.plan.padding {
        Padding::Msb => 0,
        Padding::Lsb => 1,
    });
    put_f64(&mut out, plan.plan.compressed_delay_ps);
    put_f64(&mut out, plan.plan.constraint_ps);
    put_u64(
        &mut out,
        u64::try_from(plan.plan.feasible_points).expect("usize fits u64"),
    );
    out.push(method_code(plan.method));
    match plan.accuracy_loss_pct {
        None => out.push(0),
        Some(loss) => {
            out.push(1);
            put_f64(&mut out, loss);
        }
    }
    out
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
    fn of(chip: &'a Chip) -> Self {
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

/// Encodes a complete checkpoint frame from borrowed chip views in id
/// order — the single encoder behind both [`FleetState::to_binary`]
/// and the shard-direct [`crate::FleetSim::checkpoint_binary`], so the
/// two paths cannot drift byte-wise.
///
/// Chip records and the interned plan table are built in one pass
/// (first-encounter interning order is the iteration order, exactly as
/// the state path has always written it), then spliced into the
/// payload behind the config/epoch/RNG preamble.
pub(crate) fn encode_frame<'a>(
    config: &FleetConfig,
    epoch: u64,
    rng: &FleetRng,
    budget: Option<&BudgetState>,
    chips: impl Iterator<Item = ChipView<'a>>,
    chip_count: usize,
) -> Result<Vec<u8>, FleetError> {
    let format = config.checkpoint_format();
    let with_mem = format >= CHECKPOINT_FORMAT_MEM;
    let with_autopilot = format >= CHECKPOINT_FORMAT_AUTOPILOT;
    let mut table: BTreeMap<Vec<u8>, u32> = BTreeMap::new();
    let mut ordered: Vec<Vec<u8>> = Vec::new();
    let mut chip_records = Vec::with_capacity(chip_count * 96);
    let mut seen = 0usize;
    for chip in chips {
        seen += 1;
        let plan_index = match chip.plan {
            None => None,
            Some(plan) => {
                let encoded = encode_plan(plan);
                let next = len_u32("distinct plan", ordered.len())?;
                let idx = *table.entry(encoded.clone()).or_insert_with(|| {
                    ordered.push(encoded);
                    next
                });
                Some(idx)
            }
        };
        encode_chip(
            &mut chip_records,
            &chip,
            plan_index,
            with_mem,
            with_autopilot,
        )?;
    }
    debug_assert_eq!(seen, chip_count, "chip iterator disagrees with count");

    let config_json = serde_json::to_string(config).expect("FleetConfig serializes");
    let mut payload = Vec::with_capacity(64 + config_json.len() + chip_records.len());
    put_u32(&mut payload, len_u32("config byte", config_json.len())?);
    payload.extend_from_slice(config_json.as_bytes());
    put_u64(&mut payload, epoch);
    for word in rng.state_words() {
        put_u64(&mut payload, word);
    }
    if with_autopilot {
        // Format-4 frames carry the fleet telemetry-budget ledger
        // between the RNG words and the chip count.
        match budget {
            None => payload.push(0),
            Some(b) => {
                payload.push(1);
                put_u64(&mut payload, b.tokens);
                put_u64(&mut payload, b.granted);
                put_u64(&mut payload, b.deferred);
                put_u64(&mut payload, b.overdraft);
            }
        }
    }
    put_u64(&mut payload, u64::try_from(seen).expect("usize fits u64"));
    put_u32(&mut payload, len_u32("distinct plan", ordered.len())?);
    for encoded in &ordered {
        payload.extend_from_slice(encoded);
    }
    payload.extend_from_slice(&chip_records);

    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
    frame.extend_from_slice(&MAGIC);
    put_u32(&mut frame, format);
    put_u64(
        &mut frame,
        u64::try_from(payload.len()).expect("usize fits u64"),
    );
    let checksum = crc32(&payload);
    frame.extend_from_slice(&payload);
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
    let shift = VthShift::from_volts(r.f64()?);
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

fn decode_chip(
    r: &mut Reader<'_>,
    plans: &[ChipPlan],
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
        idx => Some(
            *plans
                .get(checked_count("plan index", u64::from(idx))?)
                .ok_or_else(|| {
                    FleetError::Malformed(format!("chip {id} references missing plan {idx}"))
                })?,
        ),
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
        for _ in 0..plan_count {
            plans.push(decode_plan(&mut r)?);
        }
        let mut chips = Vec::with_capacity(r.capacity_for(chip_count, MIN_CHIP_RECORD));
        for _ in 0..chip_count {
            chips.push(decode_chip(&mut r, &plans, with_mem, with_autopilot)?);
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

    /// Loads a checkpoint of either format: binary frames are decoded
    /// by [`FleetState::from_binary`]; anything else is treated as a
    /// JSON checkpoint and goes through [`FleetState::from_json`],
    /// including its format-1 migration. This is what every tool
    /// (`agequant-fleet`, `agequant-lint`, the serve host) loads
    /// through, so pre-binary checkpoints keep working everywhere.
    ///
    /// # Errors
    ///
    /// Propagates the format-specific parse error; bytes that are
    /// neither a frame nor UTF-8 text report as
    /// [`FleetError::Malformed`].
    pub fn load(bytes: &[u8]) -> Result<Self, FleetError> {
        if bytes.starts_with(&MAGIC) {
            return Self::from_binary(bytes);
        }
        let text = std::str::from_utf8(bytes).map_err(|_| {
            FleetError::Malformed("checkpoint is neither a binary frame nor UTF-8 JSON".into())
        })?;
        Self::from_json(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::FleetSim;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
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
    fn load_dispatches_on_the_magic() {
        let state = small_state();
        let frame = state.to_binary().expect("encodes");
        assert_eq!(FleetState::load(&frame).expect("binary loads"), state);
        let json = state.to_json();
        assert_eq!(
            FleetState::load(json.as_bytes()).expect("json loads"),
            state
        );
        let garbage = [0xFFu8, 0xFE, 0x00, 0x01];
        assert!(matches!(
            FleetState::load(&garbage),
            Err(FleetError::Malformed(_))
        ));
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
        // The migration path: a format-2 checkpoint is loaded, armed,
        // and saved again as format 4 with fresh pilot state per chip.
        let mut state = small_state();
        let old_frame = state.to_binary().expect("encodes");
        let old_version = u32::from_le_bytes(old_frame[8..12].try_into().unwrap());
        assert_eq!(old_version, CHECKPOINT_FORMAT);
        state.arm_autopilot(agequant_autopilot::AutopilotConfig::demo());
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
                assert_eq!(encode_plan(&bare).len(), MIN_PLAN_RECORD);
                assert!(encode_plan(plan).len() >= MIN_PLAN_RECORD);
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
            .map(encode_plan)
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
}
