//! DRAM organization: channels, ranks, bank groups, banks, rows, columns.
//!
//! The geometry mirrors the hierarchy of §2.1 of the paper and the
//! evaluation configuration of Table 2: one channel, one rank, DDR4 with
//! 4 bank groups × 4 banks, 16 Gb devices.

use crate::error::CoreError;

/// Shape of the simulated DRAM system.
///
/// All fields are counts of components at each level of the hierarchy
/// (channel → rank → bank group → bank → row → column). Column width is
/// expressed through [`DramGeometry::device_width_bits`] (bits transferred
/// per device per beat) and the rank-wide bus is
/// [`DramGeometry::bus_width_bits`] wide.
///
/// # Example
///
/// ```
/// use clr_core::geometry::DramGeometry;
/// let g = DramGeometry::ddr4_16gb_x8();
/// assert_eq!(g.banks_total(), 16);
/// assert_eq!(g.bus_width_bits, 64);
/// // One rank of x8 devices on a 64-bit bus is 8 devices.
/// assert_eq!(g.devices_per_rank(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DramGeometry {
    /// Independent memory channels.
    pub channels: u32,
    /// Ranks per channel (time-multiplexed on the channel bus).
    pub ranks: u32,
    /// Bank groups per rank (DDR4: typically 4 for x4/x8 devices).
    pub bank_groups: u32,
    /// Banks per bank group (DDR4: 4).
    pub banks_per_group: u32,
    /// Rows per bank.
    pub rows: u32,
    /// Columns per row, counted in bus-wide bursts-of-one (beats of the
    /// whole rank). A cache line of 64 B on a 64-bit bus occupies 8 columns.
    pub columns: u32,
    /// Data bits each device contributes per beat (x4/x8/x16).
    pub device_width_bits: u32,
    /// Width of the rank data bus in bits (64 for non-ECC DDR4).
    pub bus_width_bits: u32,
    /// Burst length in beats (DDR4: 8).
    pub burst_length: u32,
}

impl DramGeometry {
    /// Geometry used throughout the paper's evaluation (Table 2): 1 channel,
    /// 1 rank, 4 bank groups × 4 banks, 16 Gb x8 devices, 64-bit bus,
    /// BL8.
    ///
    /// Row/column counts follow a 16 Gb x8 DDR4 die (JESD79-4): 128 K rows
    /// per bank with a 1 KB device page; the rank-wide row buffer is
    /// therefore 8 KB and holds 128 cache lines of 64 B.
    pub fn ddr4_16gb_x8() -> Self {
        DramGeometry {
            channels: 1,
            ranks: 1,
            bank_groups: 4,
            banks_per_group: 4,
            rows: 128 * 1024,
            columns: 1024,
            device_width_bits: 8,
            bus_width_bits: 64,
            burst_length: 8,
        }
    }

    /// A deliberately tiny geometry for unit tests and examples: 2 bank
    /// groups × 2 banks, 64 rows, 64 columns.
    pub fn tiny() -> Self {
        DramGeometry {
            channels: 1,
            ranks: 1,
            bank_groups: 2,
            banks_per_group: 2,
            rows: 64,
            columns: 64,
            device_width_bits: 8,
            bus_width_bits: 64,
            burst_length: 8,
        }
    }

    /// Validates that every level is a nonzero power of two (required by the
    /// bit-slicing address mappings in [`crate::addr`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotPowerOfTwo`] naming the first offending field.
    pub fn validate(&self) -> Result<(), CoreError> {
        let fields: [(&'static str, u64); 9] = [
            ("channels", self.channels as u64),
            ("ranks", self.ranks as u64),
            ("bank_groups", self.bank_groups as u64),
            ("banks_per_group", self.banks_per_group as u64),
            ("rows", self.rows as u64),
            ("columns", self.columns as u64),
            ("device_width_bits", self.device_width_bits as u64),
            ("bus_width_bits", self.bus_width_bits as u64),
            ("burst_length", self.burst_length as u64),
        ];
        for (what, got) in fields {
            if got == 0 || !got.is_power_of_two() {
                return Err(CoreError::NotPowerOfTwo { what, got });
            }
        }
        Ok(())
    }

    /// Total banks per rank.
    pub fn banks_total(&self) -> u32 {
        self.bank_groups * self.banks_per_group
    }

    /// The geometry of one channel of this system: identical at every
    /// level below the channel, with `channels = 1`.
    ///
    /// A channel-sharded memory system instantiates one controller per
    /// channel against this slice; [`crate::addr::AddressMapping::route`]
    /// converts a system-wide physical address into the `(channel,
    /// channel-local address)` pair the per-channel controller sees.
    pub fn channel_slice(&self) -> DramGeometry {
        DramGeometry {
            channels: 1,
            ..self.clone()
        }
    }

    /// Number of devices ganged into one rank.
    pub fn devices_per_rank(&self) -> u32 {
        self.bus_width_bits / self.device_width_bits
    }

    /// Bytes transferred by the rank per column access (one beat).
    pub fn bytes_per_column(&self) -> u64 {
        (self.bus_width_bits / 8) as u64
    }

    /// Bytes in one rank-wide row (the row buffer footprint).
    pub fn row_bytes(&self) -> u64 {
        self.columns as u64 * self.bytes_per_column()
    }

    /// Bytes moved by one full burst (a cache-line transfer on BL8/64-bit).
    pub fn burst_bytes(&self) -> u64 {
        self.burst_length as u64 * self.bytes_per_column()
    }

    /// Total capacity of the system in bytes with every row in max-capacity
    /// mode.
    pub fn capacity_bytes(&self) -> u64 {
        self.channels as u64
            * self.ranks as u64
            * self.banks_total() as u64
            * self.rows as u64
            * self.row_bytes()
    }

    /// log2 of the column count.
    pub fn column_bits(&self) -> u32 {
        self.columns.trailing_zeros()
    }

    /// log2 of the row count.
    pub fn row_bits(&self) -> u32 {
        self.rows.trailing_zeros()
    }

    /// log2 of banks per group.
    pub fn bank_bits(&self) -> u32 {
        self.banks_per_group.trailing_zeros()
    }

    /// log2 of the bank-group count.
    pub fn bank_group_bits(&self) -> u32 {
        self.bank_groups.trailing_zeros()
    }

    /// log2 of the rank count.
    pub fn rank_bits(&self) -> u32 {
        self.ranks.trailing_zeros()
    }

    /// log2 of the channel count.
    pub fn channel_bits(&self) -> u32 {
        self.channels.trailing_zeros()
    }

    /// log2 of bytes per column (the intra-column offset width).
    pub fn offset_bits(&self) -> u32 {
        (self.bytes_per_column() as u32).trailing_zeros()
    }
}

impl Default for DramGeometry {
    fn default() -> Self {
        Self::ddr4_16gb_x8()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_capacity_is_16gib() {
        // 1 rank of 16 Gb x8 devices on a 64-bit bus = 8 devices = 16 GiB.
        let g = DramGeometry::ddr4_16gb_x8();
        g.validate().unwrap();
        assert_eq!(g.capacity_bytes(), 16 * (1 << 30));
    }

    #[test]
    fn row_buffer_is_8kib() {
        let g = DramGeometry::ddr4_16gb_x8();
        assert_eq!(g.row_bytes(), 8192);
        assert_eq!(g.burst_bytes(), 64); // one cache line per burst
    }

    #[test]
    fn validate_rejects_non_power_of_two() {
        let mut g = DramGeometry::tiny();
        g.rows = 3;
        assert_eq!(
            g.validate(),
            Err(CoreError::NotPowerOfTwo {
                what: "rows",
                got: 3
            })
        );
        g.rows = 0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn tiny_is_valid() {
        DramGeometry::tiny().validate().unwrap();
    }
}
