package sensor

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Snapshot codecs. Sensors do not evolve with time, but their noise streams
// are real state: a resumed simulation must read the same noise sequence
// the uninterrupted one would. A sensor's mutable state is just its noise
// stream position; the config rides along as fixed-width floats and is
// validated on restore. The rngx snapshot keeps the journal run-length
// encoded, so a sensor that draws once per step serialises to a few tens of
// bytes regardless of simulation age.

const (
	compactROMagic = 'S'
	compactEMMagic = 'T'
)

// Snapshot serialises the RO sensor's config and noise stream position.
func (s *ROSensor) Snapshot() []byte {
	rng := s.rng.Snapshot()
	buf := make([]byte, 0, 1+4*8+binary.MaxVarintLen64+len(rng))
	buf = append(buf, compactROMagic)
	for _, v := range []float64{s.cfg.FreshHz, s.cfg.SensPerV, s.cfg.NoiseSigmaHz, s.cfg.CounterHz} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = binary.AppendUvarint(buf, uint64(len(rng)))
	return append(buf, rng...)
}

// Restore rewinds the RO sensor from a Snapshot payload of a sensor read at
// most maxReads times. Each read draws once from the noise stream, so a
// stream claiming more draws is refused before it is replayed.
func (s *ROSensor) Restore(data []byte, maxReads int64) error {
	cfgFloats, rng, err := splitSensor(data, compactROMagic, "ro")
	if err != nil {
		return err
	}
	cfg := ROConfig{
		FreshHz:      cfgFloats[0],
		SensPerV:     cfgFloats[1],
		NoiseSigmaHz: cfgFloats[2],
		CounterHz:    cfgFloats[3],
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("sensor: ro restore: %w", err)
	}
	if err := s.rng.Restore(rng, maxReads); err != nil {
		return fmt.Errorf("sensor: ro restore: %w", err)
	}
	s.cfg = cfg
	return nil
}

// Snapshot serialises the EM sensor's config and noise stream position.
func (s *EMSensor) Snapshot() []byte {
	rng := s.rng.Snapshot()
	buf := make([]byte, 0, 1+4*8+binary.MaxVarintLen64+len(rng))
	buf = append(buf, compactEMMagic)
	for _, v := range []float64{s.cfg.RefOhm, s.cfg.NoiseSigmaFrac, 0, 0} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = binary.AppendUvarint(buf, uint64(len(rng)))
	return append(buf, rng...)
}

// Restore rewinds the EM sensor from a Snapshot payload of a sensor read at
// most maxReads times (one noise draw per read, as for ROSensor.Restore).
func (s *EMSensor) Restore(data []byte, maxReads int64) error {
	cfgFloats, rng, err := splitSensor(data, compactEMMagic, "em")
	if err != nil {
		return err
	}
	cfg := EMConfig{RefOhm: cfgFloats[0], NoiseSigmaFrac: cfgFloats[1]}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("sensor: em restore: %w", err)
	}
	if err := s.rng.Restore(rng, maxReads); err != nil {
		return fmt.Errorf("sensor: em restore: %w", err)
	}
	s.cfg = cfg
	return nil
}

// splitSensor validates the shared framing: magic, four config
// floats, then a length-prefixed rng payload.
func splitSensor(data []byte, magic byte, kind string) ([4]float64, []byte, error) {
	var cfg [4]float64
	if len(data) < 1+4*8+1 || data[0] != magic {
		return cfg, nil, fmt.Errorf("sensor: %s restore: bad frame", kind)
	}
	rest := data[1:]
	for i := range cfg {
		cfg[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest))
		if math.IsNaN(cfg[i]) || math.IsInf(cfg[i], 0) {
			return cfg, nil, fmt.Errorf("sensor: %s restore: config value %g not finite", kind, cfg[i])
		}
		rest = rest[8:]
	}
	rngLen, n := binary.Uvarint(rest)
	if n <= 0 || rngLen != uint64(len(rest[n:])) {
		return cfg, nil, fmt.Errorf("sensor: %s restore: truncated rng payload", kind)
	}
	return cfg, rest[n:], nil
}
