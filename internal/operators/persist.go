package operators

import (
	"encoding/json"
	"fmt"
)

// Serialisation of fitted appliers, so a learned pipeline Ψ can be saved at
// training time and loaded in a serving process (the deployment story of
// Section IV-E3). Built-in appliers are covered by EncodeApplier /
// DecodeApplier; custom operators participate by implementing
// PersistableApplier and registering a decoder with RegisterApplierCodec.

// PersistableApplier is the optional interface custom appliers implement to
// support serialisation.
type PersistableApplier interface {
	Applier
	// PersistKind is the codec key registered via RegisterApplierCodec.
	PersistKind() string
	// PersistData encodes the applier's learned parameters.
	PersistData() (json.RawMessage, error)
}

// applierDecoder reconstructs an applier from its encoded parameters.
type applierDecoder func(data json.RawMessage) (Applier, error)

var applierCodecs = map[string]applierDecoder{}

// RegisterApplierCodec installs a decoder for a custom applier kind. It
// panics on duplicate registration (a programming error).
func RegisterApplierCodec(kind string, dec func(data json.RawMessage) (Applier, error)) {
	if _, dup := applierCodecs[kind]; dup {
		panic(fmt.Sprintf("operators: duplicate applier codec %q", kind))
	}
	applierCodecs[kind] = dec
}

// builtin payload types

type statelessPayload struct {
	Op string `json:"op"`
}

type minMaxPayload struct {
	Lo   float64 `json:"lo"`
	Span float64 `json:"span"`
}

type zScorePayload struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
}

type binPayload struct {
	Cuts []float64 `json:"cuts"`
	Name string    `json:"name"`
}

type groupByPayload struct {
	Cuts     []float64 `json:"cuts"`
	Table    []float64 `json:"table"`
	Fallback float64   `json:"fallback"`
	Name     string    `json:"name"`
}

type ridgePayload struct {
	W []float64 `json:"w"`
	B float64   `json:"b"`
}

// EncodeApplier serialises a fitted applier to (kind, data). All built-in
// appliers are supported; custom appliers must implement
// PersistableApplier.
func EncodeApplier(a Applier) (kind string, data json.RawMessage, err error) {
	switch ap := a.(type) {
	case *funcApplier:
		data, err = json.Marshal(statelessPayload{Op: ap.op.name})
		return "stateless", data, err
	case *minMaxApplier:
		data, err = json.Marshal(minMaxPayload{Lo: ap.lo, Span: ap.span})
		return "minmax", data, err
	case *zScoreApplier:
		data, err = json.Marshal(zScorePayload{Mean: ap.mean, Std: ap.std})
		return "zscore", data, err
	case *binApplier:
		data, err = json.Marshal(binPayload{Cuts: ap.cuts, Name: ap.name})
		return "bin", data, err
	case *groupByApplier:
		data, err = json.Marshal(groupByPayload{
			Cuts: ap.cuts, Table: ap.table, Fallback: ap.fallback, Name: ap.name,
		})
		return "groupby", data, err
	case *ridgeApplier:
		data, err = json.Marshal(ridgePayload{W: ap.model.W, B: ap.model.B})
		return "ridge", data, err
	case PersistableApplier:
		data, err = ap.PersistData()
		return ap.PersistKind(), data, err
	default:
		return "", nil, fmt.Errorf("operators: applier %T is not serialisable "+
			"(implement PersistableApplier)", a)
	}
}

// DecodeApplier reconstructs an applier from its serialised form.
func DecodeApplier(kind string, data json.RawMessage) (Applier, error) {
	switch kind {
	case "stateless":
		var p statelessPayload
		if err := json.Unmarshal(data, &p); err != nil {
			return nil, fmt.Errorf("operators: decode stateless: %w", err)
		}
		ctor, ok := builtins()[p.Op]
		if !ok {
			return nil, fmt.Errorf("operators: decode: unknown builtin op %q", p.Op)
		}
		op, ok := ctor().(*funcOp)
		if !ok {
			return nil, fmt.Errorf("operators: decode: op %q is not stateless", p.Op)
		}
		return &funcApplier{op: op}, nil
	case "minmax":
		var p minMaxPayload
		if err := json.Unmarshal(data, &p); err != nil {
			return nil, fmt.Errorf("operators: decode minmax: %w", err)
		}
		if p.Span == 0 {
			p.Span = 1
		}
		return &minMaxApplier{lo: p.Lo, span: p.Span}, nil
	case "zscore":
		var p zScorePayload
		if err := json.Unmarshal(data, &p); err != nil {
			return nil, fmt.Errorf("operators: decode zscore: %w", err)
		}
		if p.Std == 0 {
			p.Std = 1
		}
		return &zScoreApplier{mean: p.Mean, std: p.Std}, nil
	case "bin":
		var p binPayload
		if err := json.Unmarshal(data, &p); err != nil {
			return nil, fmt.Errorf("operators: decode bin: %w", err)
		}
		return &binApplier{cuts: p.Cuts, name: p.Name}, nil
	case "groupby":
		var p groupByPayload
		if err := json.Unmarshal(data, &p); err != nil {
			return nil, fmt.Errorf("operators: decode groupby: %w", err)
		}
		if len(p.Table) != len(p.Cuts)+1 {
			return nil, fmt.Errorf("operators: decode groupby: %d table entries for %d cuts", len(p.Table), len(p.Cuts))
		}
		return &groupByApplier{cuts: p.Cuts, table: p.Table, fallback: p.Fallback, name: p.Name}, nil
	case "ridge":
		var p ridgePayload
		if err := json.Unmarshal(data, &p); err != nil {
			return nil, fmt.Errorf("operators: decode ridge: %w", err)
		}
		if len(p.W) != 1 {
			return nil, fmt.Errorf("operators: decode ridge: %d weights, want 1", len(p.W))
		}
		return newRidgeApplier(p.W, p.B), nil
	default:
		dec, ok := applierCodecs[kind]
		if !ok {
			return nil, fmt.Errorf("operators: decode: unknown applier kind %q", kind)
		}
		return dec(data)
	}
}
