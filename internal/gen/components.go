package gen

import (
	"fmt"
	"sort"
	"strings"

	"taco/internal/fu"
	"taco/internal/tta"
)

// ComponentLibrary returns the behavioural VHDL of every component m's
// units instantiate, every RTU backend's, and the network controller —
// the reusable library the TACO framework is built on ("our approach is
// very much library-based and allows extensive component re-use for
// both simulation and synthesis", paper §1.1). One entity per unit kind;
// the map key is the component name used by VHDLTopLevel.
//
// Each component shares the socket bus protocol: on a rising edge, a
// write strobe whose destination address falls in the unit's socket
// range latches bus data into the addressed register; trigger sockets
// additionally execute the unit's operation, updating result registers
// and the signal lines into the network controller. A component's
// sockets and signals are its unit's port table, an RTU backend's from
// its unit built unbound (fu.RTUKinds).
func ComponentLibrary(cfg fu.Config, m *tta.Machine) map[string]string {
	lib := map[string]string{"taco_network_controller": networkControllerVHDL}
	add := func(name string, u tta.Unit) {
		if _, done := lib[name]; !done {
			lib[name] = unitVHDL(name, u.Ports(), bodies[name])
		}
	}
	for _, u := range m.Units() {
		add(componentName(u.Ports().Name, cfg.Table), u)
	}
	for kind, newRTU := range fu.RTUKinds {
		add(rtuComponent(kind), newRTU("rtu", cfg))
	}
	return lib
}

// bodies holds each component's operation, keyed by component name: the
// VHDL inside the clocked process after the operand latches.
var bodies = map[string]string{
	"taco_counter": `
        if w_tadd = '1' then r_reg <= std_logic_vector(unsigned(bus_data) + unsigned(o_reg));
        elsif w_tsub = '1' then r_reg <= std_logic_vector(unsigned(bus_data) - unsigned(o_reg));
        elsif w_tinc = '1' then r_reg <= std_logic_vector(unsigned(bus_data) + 1);
        elsif w_tdec = '1' then r_reg <= std_logic_vector(unsigned(bus_data) - 1);
        elsif w_tld  = '1' then r_reg <= bus_data;
        elsif counting = '1' then
          if unsigned(r_reg) < unsigned(stop_reg) then r_reg <= std_logic_vector(unsigned(r_reg) + 1);
          elsif unsigned(r_reg) > unsigned(stop_reg) then r_reg <= std_logic_vector(unsigned(r_reg) - 1);
          end if;
        end if;
        sig_done <= '1' when r_reg = stop_reg else '0';
        sig_zero <= '1' when unsigned(r_reg) = 0 else '0';`,

	"taco_comparator": `
        if w_t = '1' then
          sig_eq <= '1' when bus_data = o_reg else '0';
          sig_lt <= '1' when unsigned(bus_data) < unsigned(o_reg) else '0';
          sig_gt <= '1' when unsigned(bus_data) > unsigned(o_reg) else '0';
          r_reg  <= (0 => sig_eq, others => '0');
        end if;`,

	"taco_matcher": `
        if w_t = '1' then
          sig_match <= '1' when ((bus_data xor ref_reg) and mask_reg) = x"00000000" else '0';
        elsif w_tand = '1' then
          sig_match <= sig_match and
            ('1' when ((bus_data xor ref_reg) and mask_reg) = x"00000000" else '0');
        end if;
        r_reg <= (0 => sig_match, others => '0');`,

	"taco_masker": `
        if w_t = '1' then
          r_reg <= (bus_data and not mask_reg) or (val_reg and mask_reg);
        end if;`,

	"taco_shifter": `
        if w_tl = '1' then r_reg <= std_logic_vector(shift_left(unsigned(bus_data), to_integer(unsigned(amt_reg(4 downto 0)))));
        elsif w_tr = '1' then r_reg <= std_logic_vector(shift_right(unsigned(bus_data), to_integer(unsigned(amt_reg(4 downto 0)))));
        elsif w_tmul2 = '1' then r_reg <= bus_data(30 downto 0) & '0';
        end if;
        sig_zero <= '1' when unsigned(r_reg) = 0 else '0';`,

	"taco_checksum": `
        if w_tclr = '1' then acc <= (others => '0');
        elsif w_tadd = '1' then
          acc <= acc + unsigned(x"0000" & bus_data(31 downto 16)) + unsigned(x"0000" & bus_data(15 downto 0));
        end if;
        -- one's-complement folding on the read port
        r_reg <= std_logic_vector(acc(15 downto 0) + acc(31 downto 16));
        sig_valid <= '1' when r_reg = x"0000ffff" else '0';`,

	"taco_registers": `
        -- general-purpose register file: every socket in range is a
        -- read/write register addressed by (dst - SOCKET_BASE)
        if bus_we = '1' and in_range(bus_dst) then
          regs(to_integer(unsigned(bus_dst)) - SOCKET_BASE) <= bus_data;
        end if;`,

	"taco_mmu": `
        if w_tr = '1' then r_reg <= dmem(to_integer(unsigned(bus_data)));
        elsif w_tw = '1' then dmem(to_integer(unsigned(bus_data))) <= ow_reg;
        end if;`,

	"taco_rtu_sequential": `
        -- entry latch: prefix, mask, length and interface of entry bus_data
        if w_tidx = '1' then entry_latch <= table_mem(to_integer(unsigned(bus_data)));
        end if;`,

	"taco_rtu_balanced_tree": `
        -- node latch: range, children and interface of node bus_data
        if w_tnode = '1' then node_latch <= node_mem(to_integer(unsigned(bus_data)));
        end if;`,

	"taco_rtu_cam": `
        -- search: the external CAM raises ready and hit after its wait cycles
        if w_tlook = '1' then cam_key <= a0_reg & a1_reg & a2_reg & bus_data; sig_ready <= '0';
        end if;`,

	"taco_liu": `
        if w_tchk = '1' then
          sig_mine <= '1' when {a0_reg, a1_reg, a2_reg, bus_data} = local_addr else '0';
        end if;`,

	"taco_ippu": `
        -- autonomous DMA engine: scans card input buffers, writes the
        -- datagram into data memory, pushes a descriptor
        if w_tpop = '1' and queue_nonempty = '1' then
          ptr_reg <= q_head_ptr; ifc_reg <= q_head_ifc; len_reg <= q_head_len;
        end if;
        sig_pending <= queue_nonempty;`,

	"taco_oppu": `
        -- autonomous DMA engine: copies [ptr_reg, ptr_reg+len_reg) from
        -- data memory into the output buffer of card bus_data
        if w_tsend = '1' then start_tx <= '1'; tx_card <= bus_data(3 downto 0);
        end if;`,
}

const networkControllerVHDL = `-- TACO interconnection network controller
-- Fetches one instruction word per cycle from program memory, evaluates
-- move guards against the functional units' signal lines, and drives
-- one (src, dst) address pair per bus. Jump/halt sockets live here.
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity taco_network_controller is
  generic (SOCKET_BASE : natural);
  port (clk, rst_n : in std_logic);
end entity taco_network_controller;

architecture behavioural of taco_network_controller is
  signal pc : unsigned(15 downto 0);
begin
  process (clk)
  begin
    if rising_edge(clk) then
      if rst_n = '0' then
        pc <= (others => '0');
      else
        -- guarded jump: a move targeting the jmp socket replaces pc
        pc <= pc + 1;
      end if;
    end if;
  end process;
end architecture behavioural;
`

// unitVHDL renders a component with the shared socket-bus protocol:
// socket i of p decodes SOCKET_BASE + i.
func unitVHDL(name string, p *tta.PortTable, body string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- TACO functional unit: %s\n", name)
	b.WriteString("library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n")
	fmt.Fprintf(&b, "entity %s is\n", name)
	b.WriteString("  generic (SOCKET_BASE : natural);\n")
	b.WriteString("  port (\n")
	b.WriteString("    clk, rst_n : in  std_logic;\n")
	b.WriteString("    bus_we     : in  std_logic;\n")
	b.WriteString("    bus_dst    : in  std_logic_vector(11 downto 0);\n")
	b.WriteString("    bus_data   : in  std_logic_vector(31 downto 0);\n")
	b.WriteString("    rd_addr    : in  std_logic_vector(11 downto 0);\n")
	b.WriteString("    rd_data    : out std_logic_vector(31 downto 0)\n")
	b.WriteString("  );\n")
	fmt.Fprintf(&b, "end entity %s;\n\n", name)
	fmt.Fprintf(&b, "architecture behavioural of %s is\n", name)
	each := func(kind tta.SocketKind, line func(i int, name string)) {
		for i, sock := range p.Sockets {
			if sock.Kind == kind {
				line(i, sock.Name)
			}
		}
	}
	reg := func(_ int, n string) { fmt.Fprintf(&b, "  signal %s_reg : std_logic_vector(31 downto 0);\n", n) }
	each(tta.Operand, reg)
	each(tta.Result, reg)
	each(tta.Trigger, func(_ int, t string) { fmt.Fprintf(&b, "  signal w_%s : std_logic; -- trigger strobe\n", t) })
	for _, l := range p.Lines {
		fmt.Fprintf(&b, "  signal sig_%s : std_logic; -- to network controller\n", l.Name)
	}
	b.WriteString("begin\n")
	// Socket decode: each named socket is SOCKET_BASE + its index.
	each(tta.Trigger, func(i int, t string) {
		fmt.Fprintf(&b, "  w_%s <= bus_we when unsigned(bus_dst) = SOCKET_BASE + %d else '0';\n", t, i)
	})
	b.WriteString("  process (clk)\n  begin\n    if rising_edge(clk) then\n")
	each(tta.Operand, func(i int, o string) {
		fmt.Fprintf(&b, "      if bus_we = '1' and unsigned(bus_dst) = SOCKET_BASE + %d then %s_reg <= bus_data; end if;\n", i, o)
	})
	b.WriteString("      -- operation\n")
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		fmt.Fprintf(&b, "      %s\n", strings.TrimRight(line, " "))
	}
	b.WriteString("    end if;\n  end process;\nend architecture behavioural;\n")
	return b.String()
}

// WriteLibrary renders the component library of m, built for cfg, as
// one concatenated file with deterministic ordering.
func WriteLibrary(cfg fu.Config, m *tta.Machine) string {
	lib := ComponentLibrary(cfg, m)
	names := make([]string, 0, len(lib))
	for n := range lib {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("-- TACO functional-unit component library (generated; see internal/gen)\n\n")
	for _, n := range names {
		b.WriteString(lib[n])
		b.WriteString("\n")
	}
	return b.String()
}
